package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rlnoc/internal/config"
	"rlnoc/internal/core"
)

// recoverySpecs builds the crash-recovery matrix: mesh + torus, rl +
// qroute, chaos-style (no pretrain) with checkpoints every 500 cycles.
func recoverySpecs(traceCycles int64, inject InjectSpec) []Spec {
	var specs []Spec
	for _, topo := range []string{"mesh", "torus"} {
		for _, scheme := range []core.Scheme{core.SchemeRL, core.SchemeQRoute} {
			cfg := config.Small()
			cfg.Checks = "all"
			cfg.WarmupCycles = 200
			cfg.Topology = topo
			if topo == "torus" && cfg.VCsPerPort < 8 {
				cfg.VCsPerPort = 8
			}
			specs = append(specs, Spec{
				ID:     topo + "-" + string(scheme),
				Config: cfg,
				Scheme: string(scheme),
				Label:  "recovery",
				Trace: TraceSpec{
					Pattern: "uniform", Rate: 0.01,
					Cycles: traceCycles, Seed: cfg.Seed + 5,
				},
				SnapshotEvery: 500,
				Inject:        inject,
			})
		}
	}
	return specs
}

type refResult struct {
	outcome string
	detail  string
	result  string // canonical JSON of core.Result
}

// referenceResults runs the matrix uninterrupted and returns each job's
// terminal record — the byte-identity baseline.
func referenceResults(t *testing.T, traceCycles int64) map[string]refResult {
	t.Helper()
	eng := openTestEngine(t, Options{Workers: 4})
	if err := eng.Submit(recoverySpecs(traceCycles, InjectSpec{})...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ref := map[string]refResult{}
	for _, r := range eng.Results() {
		if r.Outcome != OutcomeDrained && r.Outcome != OutcomeBudget {
			t.Fatalf("reference job %s finished %s (%s)", r.ID, r.Outcome, r.Err)
		}
		ref[r.ID] = refResult{outcome: r.Outcome, detail: r.Detail, result: resultJSON(t, r.Result)}
	}
	if len(ref) != 4 {
		t.Fatalf("reference produced %d results, want 4", len(ref))
	}
	return ref
}

func resultJSON(t *testing.T, res core.Result) string {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// checkRecovered compares a disrupted campaign's results against the
// uninterrupted reference, byte for byte.
func checkRecovered(t *testing.T, eng *Engine, ref map[string]refResult, wantRecovered bool) {
	t.Helper()
	results := eng.Results()
	if len(results) != len(ref) {
		t.Fatalf("got %d results, want %d", len(results), len(ref))
	}
	for _, r := range results {
		want, ok := ref[r.ID]
		if !ok {
			t.Errorf("job %s not in reference", r.ID)
			continue
		}
		if r.Outcome != want.outcome || r.Detail != want.detail {
			t.Errorf("job %s: outcome %s (%s), reference %s (%s)",
				r.ID, r.Outcome, r.Detail, want.outcome, want.detail)
		}
		if got := resultJSON(t, r.Result); got != want.result {
			t.Errorf("job %s: recovered Result differs from uninterrupted run\n got: %s\nwant: %s",
				r.ID, got, want.result)
		}
		if wantRecovered && !r.Recovered {
			t.Errorf("job %s completed without restoring a checkpoint", r.ID)
		}
	}
}

// TestPanicIsTerminal injects a panic mid-measurement into every job
// (mesh + torus, rl + qroute): the supervisor must isolate it and end the
// job dead after its one start — a deterministic run would panic again at
// the same cycle — with the command that replays it from its newest
// checkpoint, at 1 and 4 workers.
func TestPanicIsTerminal(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng := openTestEngine(t, Options{Workers: workers})
			if err := eng.Submit(recoverySpecs(2000, InjectSpec{PanicAtCycle: 1200})...); err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			results := eng.Results()
			if len(results) != 4 {
				t.Fatalf("got %d results, want 4", len(results))
			}
			for _, r := range results {
				if r.Outcome != OutcomeDead || r.Attempts != 1 {
					t.Errorf("job %s: outcome %s after %d failed attempts, want dead after 1", r.ID, r.Outcome, r.Attempts)
				}
				if !strings.Contains(r.Err, "panicked") || !strings.Contains(r.Err, "replay with: RLNOC_CHECKS=all nocsim -restore ") {
					t.Errorf("job %s: error %q names no panic and no replay command", r.ID, r.Err)
				}
			}
			for _, st := range eng.Status() {
				if st.Starts != 1 {
					t.Errorf("job %s started %d times, want 1", st.ID, st.Starts)
				}
			}
		})
	}
}

// TestRecoveryFromStall stalls every job mid-measurement: the progress
// watchdog must kill each wedged attempt snapshot-aware and the retry
// must resume from the suspend checkpoint, byte-identical.
func TestRecoveryFromStall(t *testing.T) {
	const trace = 2000
	ref := referenceResults(t, trace)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			eng := openTestEngine(t, Options{Workers: workers,
				WatchdogAfter: 400 * time.Millisecond})
			specs := recoverySpecs(trace, InjectSpec{StallAtCycle: 1200})
			if err := eng.Submit(specs...); err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			checkRecovered(t, eng, ref, true)
		})
	}
}

// TestWatchdogReportsStallCycle: while a job hangs, Status and the
// watchdog's log line name the cycle the run reached, not the cycle of an
// earlier timed tick (cycle 0 when the stall came before the first). The
// injected stall hangs the observer at the first multiple of its period
// at or past StallAtCycle (2560), a control-poll cycle, so both must read
// at least StallAtCycle.
func TestWatchdogReportsStallCycle(t *testing.T) {
	const stallAt = 2500
	var latest atomic.Int64 // the running job's Status().Cycle, last poll
	type kill struct {
		status int64  // Status().Cycle while the job hung
		line   string // the watchdog's log line
	}
	atKill := make(chan kill, 1)
	logf := func(format string, args ...any) {
		// The watchdog logs under the engine lock that Status takes, so
		// every poll already stored read the stalled attempt.
		if msg := fmt.Sprintf(format, args...); strings.Contains(msg, "silent") {
			select {
			case atKill <- kill{latest.Load(), msg}:
			default:
			}
		}
	}
	eng := openTestEngine(t, Options{WatchdogAfter: time.Second, Logf: logf})
	if err := eng.Submit(recoverySpecs(3000, InjectSpec{StallAtCycle: stallAt})[0]); err != nil {
		t.Fatal(err)
	}
	latest.Store(-1)
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			for _, st := range eng.Status() {
				if st.State == "running" {
					latest.Store(st.Cycle)
				}
			}
		}
	}()
	err := eng.Run(context.Background())
	close(stop)
	<-polled
	if err != nil {
		t.Fatal(err)
	}
	var k kill
	select {
	case k = <-atKill:
	default:
		t.Fatal("the watchdog never fired")
	}
	if k.status < stallAt {
		t.Errorf("Status().Cycle of the stalled job = %d, want >= %d", k.status, stallAt)
	}
	var n int64 = -1
	if m := regexp.MustCompile(`at cycle (\d+)`).FindStringSubmatch(k.line); m != nil {
		n, _ = strconv.ParseInt(m[1], 10, 64)
	}
	if n < stallAt {
		t.Errorf("watchdog logged %q, want a cycle >= %d", k.line, stallAt)
	}
	if st := eng.Status()[0]; st.Outcome != OutcomeDrained {
		t.Errorf("job ended %s (%s), want drained after one resume", st.Outcome, st.Detail)
	}
}

// TestGracefulShutdownResume cancels a campaign mid-flight (the SIGTERM
// path): Run must return with every in-flight job checkpointed and
// requeued, and a fresh engine over the same directory must finish the
// campaign byte-identical to the uninterrupted reference.
func TestGracefulShutdownResume(t *testing.T) {
	const trace = 10_000
	ref := referenceResults(t, trace)
	dir := filepath.Join(t.TempDir(), "campaign")
	specs := recoverySpecs(trace, InjectSpec{})

	eng, err := Open(Options{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(specs...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel once some job is demonstrably mid-measurement.
		for {
			for _, st := range eng.Status() {
				if st.State == "running" && st.Cycle > 500 {
					cancel()
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	if err := eng.Run(ctx); err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	cancel()
	if len(eng.Results()) == len(eng.Status()) {
		t.Fatal("campaign finished before the shutdown landed; cancel raced the run")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// The shutdown journals no verdict for a suspended job: some job's
	// last record must be a start, which replay leaves pending.
	j, recs, err := OpenJournal(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	last := map[string]string{}
	for _, rec := range recs {
		last[rec.Job] = rec.Type
	}
	inFlight := 0
	for _, typ := range last {
		if typ == RecStart {
			inFlight++
		}
	}
	if inFlight == 0 {
		t.Fatal("no job's journal ends on a start record: the shutdown landed on no job mid-flight")
	}

	// Restart: same dir, same specs (the daemon-restart idiom).
	eng2, err := Open(Options{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if err := eng2.Submit(specs...); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, eng2, ref, false)
}
