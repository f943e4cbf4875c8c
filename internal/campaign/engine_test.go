package campaign

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rlnoc/internal/config"
	"rlnoc/internal/core"
)

// tinySpec is a fast chaos-style job (no pretrain, short trace) for
// engine-mechanics tests.
func tinySpec(id string, priority int) Spec {
	cfg := config.Small()
	cfg.Checks = "all"
	cfg.WarmupCycles = 50
	return Spec{
		ID:       id,
		Priority: priority,
		Config:   cfg,
		Scheme:   string(core.SchemeRL),
		Label:    id,
		Trace:    TraceSpec{Pattern: "uniform", Rate: 0.005, Cycles: 300, Seed: cfg.Seed + 7},
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

// TestBackoffDeterministicJitter pins the retry-delay policy: same
// (seed, job, failure) triple → same delay across engines; delays grow
// exponentially, stay within [base/2^0 .. max], and differ across jobs.
func TestBackoffDeterministicJitter(t *testing.T) {
	mk := func(seed int64) *Engine {
		return openTestEngine(t, Options{Seed: seed,
			BackoffBase: 100 * time.Millisecond, BackoffMax: 5 * time.Second})
	}
	a, b := mk(42), mk(42)
	other := mk(43)
	sawJobSkew, sawSeedSkew := false, false
	for n := 1; n <= 8; n++ {
		da := a.backoffDelay("job-a", n)
		if db := b.backoffDelay("job-a", n); da != db {
			t.Fatalf("failure %d: same key gave %v and %v", n, da, db)
		}
		if d2 := a.backoffDelay("job-b", n); d2 != da {
			sawJobSkew = true
		}
		if d3 := other.backoffDelay("job-a", n); d3 != da {
			sawSeedSkew = true
		}
		lo := 100 * time.Millisecond << (n - 1) / 2
		hi := 100 * time.Millisecond << (n - 1)
		if hi > 5*time.Second {
			hi = 5 * time.Second
			lo = hi / 2
		}
		if da < lo || da > hi {
			t.Errorf("failure %d: delay %v outside [%v, %v]", n, da, lo, hi)
		}
	}
	if !sawJobSkew || !sawSeedSkew {
		t.Errorf("jitter did not vary across jobs (%v) or seeds (%v)", sawJobSkew, sawSeedSkew)
	}
}

// TestPriorityOrder runs a single worker over jobs submitted in
// priority-inverted order and checks the journal's start records: the
// queue must run highest priority first, submit order breaking ties.
func TestPriorityOrder(t *testing.T) {
	eng := openTestEngine(t, Options{Workers: 1})
	specs := []Spec{
		tinySpec("low", 0), tinySpec("high", 5),
		tinySpec("mid", 2), tinySpec("mid-tie", 2),
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
	want := "high mid mid-tie low"
	if got := strings.Join(order, " "); got != want {
		t.Errorf("execution order %q, want %q", got, want)
	}
	for _, r := range eng.Results() {
		if r.Outcome != OutcomeDrained && r.Outcome != OutcomeBudget {
			t.Errorf("job %s finished %s", r.ID, r.Outcome)
		}
	}
}

// TestRetryBudgetExhaustion drives a job that can never build its trace
// (nonexistent benchmark) through the retry machinery to OutcomeDead,
// checks the journal recorded each failed attempt, and reopens the
// campaign to see the job retried.
func TestRetryBudgetExhaustion(t *testing.T) {
	eng := openTestEngine(t, Options{Workers: 1, MaxAttempts: 2,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond})
	spec := tinySpec("doomed", 0)
	spec.Trace = TraceSpec{Benchmark: "no-such-benchmark", Cycles: 100, Seed: 1}
	if err := eng.Submit(spec, tinySpec("fine", 0)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	results := eng.Results()
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	var doomed, fine JobResult
	for _, r := range results {
		switch r.ID {
		case "doomed":
			doomed = r
		case "fine":
			fine = r
		}
	}
	if doomed.Outcome != OutcomeDead || doomed.Attempts != 2 || doomed.Err == "" {
		t.Errorf("doomed job: outcome %s attempts %d err %q", doomed.Outcome, doomed.Attempts, doomed.Err)
	}
	// One job dying must not take the campaign with it.
	if fine.Outcome != OutcomeDrained && fine.Outcome != OutcomeBudget {
		t.Errorf("sibling job finished %s", fine.Outcome)
	}
	_, recs, err := OpenJournal(filepath.Join(eng.Dir(), "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	fails, deads := 0, 0
	for _, rec := range recs {
		if rec.Job != "doomed" {
			continue
		}
		switch rec.Type {
		case RecFail:
			fails++
		case RecDead:
			deads++
		}
	}
	if fails != 1 || deads != 1 {
		t.Errorf("journal for doomed job: %d fail + %d dead records, want 1+1", fails, deads)
	}

	// The next process gives the dead job a fresh budget — what failed it
	// may have been the host, or a build since fixed — and leaves the
	// finished one alone.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng = openTestEngine(t, Options{Dir: eng.Dir(), Workers: 1, MaxAttempts: 2,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond})
	if err := eng.Submit(spec, tinySpec("fine", 0)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	starts := map[string]int{}
	for _, st := range eng.Status() {
		starts[st.ID] = st.Starts
	}
	if starts["doomed"] != 4 || starts["fine"] != 1 {
		t.Errorf("over two processes the dead job started %d times and the finished one %d, want 4 and 1",
			starts["doomed"], starts["fine"])
	}
}

// TestDeadlineExpires pins the per-job deadline: a job whose wall-clock
// budget is gone before it can finish dies with OutcomeDeadline.
func TestDeadlineExpires(t *testing.T) {
	eng := openTestEngine(t, Options{Workers: 1})
	spec := tinySpec("rushed", 0)
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
	spec := tinySpec("scarred", 0)
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
	spec := tinySpec("job", 0)
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
	changed.Priority = 9
	if err := eng.Submit(changed); err == nil {
		t.Fatal("same ID with different spec accepted")
	}
	eng.Close()

	eng2 := openTestEngine(t, Options{Dir: dir, Workers: 1})
	if err := eng2.Submit(spec); err != nil {
		t.Fatalf("re-submit after reopen rejected: %v", err)
	}
	if n := len(eng2.Status()); n != 1 {
		t.Fatalf("manifest grew to %d jobs across restarts", n)
	}
}
