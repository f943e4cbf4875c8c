package campaign

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rlnoc/internal/config"
	"rlnoc/internal/core"
)

// tinySpec is a fast chaos-style job (no pretrain, short trace) for
// engine-mechanics tests.
func tinySpec(id string) Spec {
	cfg := config.Small()
	cfg.Checks = "all"
	cfg.WarmupCycles = 50
	return Spec{
		ID:     id,
		Config: cfg,
		Scheme: string(core.SchemeRL),
		Label:  id,
		Trace:  TraceSpec{Pattern: "uniform", Rate: 0.005, Cycles: 300, Seed: cfg.Seed + 7},
	}
}

func openTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = filepath.Join(t.TempDir(), "campaign")
	}
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// TestOpenRequiresDir: every engine is durable; the temp-dir mode the
// one-shot campaign helper used is gone with it.
func TestOpenRequiresDir(t *testing.T) {
	if eng, err := Open(Options{}); err == nil {
		eng.Close()
		t.Fatal("Open without a directory succeeded")
	}
}

// TestSubmitOrder runs a single worker over jobs whose IDs sort in
// another order than they were submitted in, and checks the journal's
// start records: the queue runs jobs in submit order.
func TestSubmitOrder(t *testing.T) {
	eng := openTestEngine(t, Options{Workers: 1})
	specs := []Spec{
		tinySpec("c"), tinySpec("a"),
		tinySpec("d"), tinySpec("b"),
	}
	if err := eng.Submit(specs...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, recs, err := OpenJournal(filepath.Join(eng.Dir(), "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, rec := range recs {
		if rec.Type == RecStart {
			order = append(order, rec.Job)
		}
	}
	want := "c a d b"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("execution order %q, want %q", got, want)
	}
	for _, r := range eng.Results() {
		if r.Outcome != OutcomeDrained && r.Outcome != OutcomeBudget {
			t.Errorf("job %s finished %s", r.ID, r.Outcome)
		}
	}
}

// TestRetryBudgetExhaustion drives a job that fails the same way on
// every attempt: a file stands where its checkpoint directory belongs, so
// it fails writing its first checkpoint. A failure that is not a stall
// ends the job after its one attempt — one dead record and no fail record
// — while its sibling drains. The next process runs the dead job again
// (the fault may have been the host's, since fixed) and leaves the
// finished one alone.
func TestRetryBudgetExhaustion(t *testing.T) {
	eng := openTestEngine(t, Options{Workers: 1})
	spec := tinySpec("doomed")
	spec.SnapshotEvery = 100
	jobs := filepath.Join(eng.Dir(), "jobs")
	if err := os.MkdirAll(jobs, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobs, "doomed"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	run := func() map[string]JobResult {
		t.Helper()
		if err := eng.Submit(spec, tinySpec("fine")); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		byID := map[string]JobResult{}
		for _, r := range eng.Results() {
			byID[r.ID] = r
		}
		return byID
	}
	byID := run()
	if doomed := byID["doomed"]; doomed.Outcome != OutcomeDead || doomed.Attempts != 1 || doomed.Err == "" {
		t.Errorf("doomed job: outcome %s attempts %d err %q", doomed.Outcome, doomed.Attempts, doomed.Err)
	}
	// One job dying must not take the campaign with it.
	if fine := byID["fine"]; fine.Outcome != OutcomeDrained && fine.Outcome != OutcomeBudget {
		t.Errorf("sibling job finished %s", fine.Outcome)
	}
	_, recs, err := OpenJournal(filepath.Join(eng.Dir(), "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	verdicts := map[string]int{}
	for _, rec := range recs {
		if rec.Job == "doomed" {
			verdicts[rec.Type]++
		}
	}
	if verdicts[RecFail] != 0 || verdicts[RecDead] != 1 {
		t.Errorf("journal for doomed job: %d fail + %d dead records, want 0+1", verdicts[RecFail], verdicts[RecDead])
	}

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng = openTestEngine(t, Options{Dir: eng.Dir(), Workers: 1})
	run()
	starts := map[string]int{}
	for _, st := range eng.Status() {
		starts[st.ID] = st.Starts
	}
	if starts["doomed"] != 2 || starts["fine"] != 1 {
		t.Errorf("over two processes the dead job started %d times and the finished one %d, want 2 and 1",
			starts["doomed"], starts["fine"])
	}
}

// TestOpenOldDirectory opens a campaign directory whose journal shows a
// job submitted, started, failed and started again with no verdict (the
// process died mid-retry), after a record for a job no submit record
// added. The job must resume and finish, keeping the journaled failure in
// its Attempts.
func TestOpenOldDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := tinySpec("old")
	j, _, err := OpenJournal(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Record{
		{Type: RecStart, Job: "unknown", Attempt: 1},
		{Type: RecSubmit, Job: "old", Spec: &spec},
		{Type: RecStart, Job: "old", Attempt: 1},
		{Type: RecFail, Job: "old", Attempt: 1, Error: "campaign: job old panicked: boom", ElapsedMS: 5},
		{Type: RecStart, Job: "old", Attempt: 2},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	eng := openTestEngine(t, Options{Dir: dir, Workers: 1})
	if n := len(eng.Status()); n != 1 {
		t.Fatalf("reopened campaign holds %d jobs, want 1", n)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	r := eng.Results()[0]
	if r.Outcome != OutcomeDrained && r.Outcome != OutcomeBudget {
		t.Fatalf("job finished %s (%s)", r.Outcome, r.Err)
	}
	if r.Attempts != 1 {
		t.Errorf("Attempts %d, want the journaled failure count 1", r.Attempts)
	}
	if st := eng.Status()[0]; st.Starts != 3 {
		t.Errorf("job started %d times over both processes, want 3", st.Starts)
	}
}

// TestDeadlineExpires pins the per-job deadline: a job whose wall-clock
// budget is gone before it can finish dies with OutcomeDeadline.
func TestDeadlineExpires(t *testing.T) {
	eng := openTestEngine(t, Options{Workers: 1})
	spec := tinySpec("rushed")
	spec.Trace.Cycles = 20_000 // long enough that the abort always lands mid-run
	spec.Deadline = time.Nanosecond
	if err := eng.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	r := eng.Results()[0]
	if r.Outcome != OutcomeDeadline {
		t.Errorf("outcome %s, want %s", r.Outcome, OutcomeDeadline)
	}
}

// TestCorruptCheckpointQuarantine plants garbage where the newest
// checkpoint should be: the engine must quarantine it (.corrupt) and
// fall back — here all the way to a fresh run — instead of failing the
// job.
func TestCorruptCheckpointQuarantine(t *testing.T) {
	eng := openTestEngine(t, Options{Workers: 1})
	spec := tinySpec("scarred")
	spec.SnapshotEvery = 100
	jobDir := eng.jobDir(spec.ID)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	bogus := filepath.Join(jobDir, "snapshot-000000009999.rlns")
	if err := os.WriteFile(bogus, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	r := eng.Results()[0]
	if r.Outcome != OutcomeDrained && r.Outcome != OutcomeBudget {
		t.Fatalf("job finished %s (%s)", r.Outcome, r.Err)
	}
	if _, err := os.Stat(bogus + ".corrupt"); err != nil {
		t.Errorf("corrupt checkpoint not quarantined: %v", err)
	}
	if _, err := os.Stat(bogus); !os.IsNotExist(err) {
		t.Errorf("corrupt checkpoint still present under its original name")
	}
}

// TestSubmitIdempotent re-offers the same specs to a reopened campaign
// (the daemon-restart path), and at other worker counts, and rejects an ID
// reuse with a different payload.
func TestSubmitIdempotent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign")
	eng := openTestEngine(t, Options{Dir: dir, Workers: 1})
	spec := tinySpec("job")
	if err := eng.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(spec); err != nil {
		t.Fatalf("idempotent re-submit rejected: %v", err)
	}
	// Worker counts change no result (SuiteWorkers is host-local,
	// StepWorkers ignored), so the spec that differs only in them is the
	// same job.
	elsewhere := spec
	elsewhere.Config.SuiteWorkers, elsewhere.Config.StepWorkers = 3, 2
	if err := eng.Submit(elsewhere); err != nil {
		t.Fatalf("re-submit at other worker counts rejected: %v", err)
	}
	changed := spec
	changed.Label = "other"
	if err := eng.Submit(changed); err == nil {
		t.Fatal("same ID with different spec accepted")
	}
	eng.Close()

	eng2 := openTestEngine(t, Options{Dir: dir, Workers: 1})
	if err := eng2.Submit(spec); err != nil {
		t.Fatalf("re-submit after reopen rejected: %v", err)
	}
	if n := len(eng2.Status()); n != 1 {
		t.Fatalf("campaign grew to %d jobs across restarts", n)
	}
	if n := countRecords(t, dir, RecSubmit); n != 1 {
		t.Fatalf("journal holds %d submit records across restarts, want 1", n)
	}
}

// countRecords counts the records of type typ in dir's journal.
func countRecords(t *testing.T, dir, typ string) int {
	t.Helper()
	j, recs, err := OpenJournal(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	n := 0
	for _, rec := range recs {
		if rec.Type == typ {
			n++
		}
	}
	return n
}

// TestSubmitInvalidBatchAddsNothing: a batch holding one spec Validate
// refuses is refused whole — no job of it is queued and no record of it
// is journaled.
func TestSubmitInvalidBatchAddsNothing(t *testing.T) {
	eng := openTestEngine(t, Options{Workers: 1})
	if err := eng.Submit(tinySpec("good"), tinySpec("../bad")); err == nil {
		t.Fatal("Submit accepted a batch holding ID ../bad")
	}
	if n := len(eng.Status()); n != 0 {
		t.Errorf("a refused Submit queued %d jobs", n)
	}
	if n := countRecords(t, eng.Dir(), RecSubmit); n != 0 {
		t.Errorf("a refused Submit journaled %d submit records", n)
	}
}

// TestSubmitJournalFailureAddsNothing: a Submit whose journal append
// fails returns the error and queues nothing, so no job runs that a
// restart would not know of.
func TestSubmitJournalFailureAddsNothing(t *testing.T) {
	eng := openTestEngine(t, Options{Workers: 1})
	eng.journal.f.Close()
	if err := eng.Submit(tinySpec("lost")); err == nil {
		t.Fatal("Submit succeeded with its journal closed")
	}
	if n := len(eng.Status()); n != 0 {
		t.Errorf("a Submit that journaled nothing queued %d jobs", n)
	}
}

// TestOpenJournalOnly: the journal is the campaign's only durable record.
// A fresh directory holds the journal, the job directories and pre-trained
// states and nothing else, and with the journal alone it reopens with every
// job, its state and its result.
func TestOpenJournalOnly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign")
	eng := openTestEngine(t, Options{Dir: dir, Workers: 1})
	if err := eng.Submit(tinySpec("a"), tinySpec("b")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(tinySpec("c")); err != nil {
		t.Fatal(err)
	}
	want, wantResults := eng.Status(), eng.Results()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if name == "journal.log" {
			continue
		}
		if ok, _ := filepath.Match("pretrain-*.rlns", name); name != "jobs" && !ok {
			t.Errorf("campaign directory holds %s", name)
		}
		if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}

	eng = openTestEngine(t, Options{Dir: dir, Workers: 1})
	if got := eng.Status(); !reflect.DeepEqual(got, want) {
		t.Errorf("reopened status %+v, want %+v", got, want)
	}
	if got := eng.Results(); !reflect.DeepEqual(got, wantResults) {
		t.Errorf("reopened results differ:\n got %+v\nwant %+v", got, wantResults)
	}
}
