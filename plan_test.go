package rlnoc

// The figure suite and the ablations are plans on the campaign engine
// (DESIGN.md §17): a plan over a directory survives being interrupted, and
// its rerun prints what an uninterrupted run prints.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rlnoc/internal/campaign"
)

// What the engine logs when it runs a pre-training phase and when a cell
// finishes.
const (
	phaseLine = "pre-trained state kept"
	doneLine  = ": done ("
)

// planLog collects the engine's diagnostics for a test to count, and calls
// onDone (if set) at every finished cell.
type planLog struct {
	mu     sync.Mutex
	lines  []string
	onDone func()
}

func (l *planLog) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	l.mu.Lock()
	l.lines = append(l.lines, line)
	l.mu.Unlock()
	if l.onDone != nil && strings.Contains(line, doneLine) {
		l.onDone()
	}
}

func (l *planLog) count(substr string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// TestSuiteResumesByteIdentical interrupts a two-seed, two-benchmark suite
// through the engine's context after its first finished cell and reruns it
// over the same directory: the rerun runs only the cells left and returns
// exactly the uninterrupted suite, the finished cells read back from the
// journal. A second rerun finds everything finished and simulates nothing.
func TestSuiteResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite three times")
	}
	cfg := fastConfig()
	cfg.PretrainCycles = 4000
	cfg.MaxCycles = 4000
	cfg.SuiteWorkers = 2
	benchmarks := []string{"swaptions", "canneal"}
	seeds := []int64{cfg.Seed, cfg.Seed + 1}
	cells := len(seeds) * len(Schemes()) * len(benchmarks)
	want, err := RunSuiteSeeds(cfg, benchmarks, seeds, "")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := planLog{onDone: cancel}
	if _, err := runSuiteSeeds(ctx, campaign.Options{Dir: dir, Logf: cut.logf}, cfg, benchmarks, seeds); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	before := cut.count(doneLine)
	if before == 0 || before == cells {
		t.Fatalf("the interrupted run finished %d of %d cells", before, cells)
	}

	var rerun planLog
	got, err := runSuiteSeeds(context.Background(), campaign.Options{Dir: dir, Logf: rerun.logf}, cfg, benchmarks, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the resumed suite differs from the uninterrupted one")
	}
	if after := rerun.count(doneLine); before+after != cells {
		t.Errorf("%d cells finished before the cut and %d after it, want %d in all", before, after, cells)
	}

	var again planLog
	got, err = runSuiteSeeds(context.Background(), campaign.Options{Dir: dir, Logf: again.logf}, cfg, benchmarks, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the suite read back from a finished directory differs from the uninterrupted one")
	}
	if phases, done := again.count(phaseLine), again.count(doneLine); phases != 0 || done != 0 {
		t.Errorf("a rerun over a finished directory ran %d pre-training phases and %d cells, want none", phases, done)
	}
}

// TestPlanFailsOnStoppedRun: the engine finishes a run that an armed
// invariant check stopped as a job with outcome watchdog (wedged when the
// ledger broke too), and its Result is truncated. A plan fails on such a
// cell, as Run fails on the check's error, and says how the run ended. The
// cell's verdict is appended to a finished plan's journal, the record a
// checked run that tripped leaves.
func TestPlanFailsOnStoppedRun(t *testing.T) {
	cfg := fastConfig()
	cfg.PretrainCycles = 2000
	cfg.MaxCycles = 2000
	arms := []Arm{{Config: cfg, Scheme: CRC}}
	benchmarks := []string{"canneal"}
	dir := t.TempDir()
	if _, err := RunArms(arms, benchmarks, dir); err != nil {
		t.Fatal(err)
	}
	for _, outcome := range []string{campaign.OutcomeWatchdog, campaign.OutcomeWedged} {
		journal, recs, err := campaign.OpenJournal(filepath.Join(dir, "journal.log"))
		if err != nil {
			t.Fatal(err)
		}
		var cell string
		for _, rec := range recs {
			if rec.Type == campaign.RecDone {
				cell = rec.Job
			}
		}
		err = journal.Append(campaign.Record{Type: campaign.RecDone, Job: cell, Outcome: outcome, Detail: "no forward progress"})
		journal.Close()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunArms(arms, benchmarks, dir); err == nil || !strings.Contains(err.Error(), "ended "+outcome) {
			t.Errorf("a plan whose cell ended %s returned %v, want an error naming the outcome", outcome, err)
		}
	}
}

// TestPlanInMemory: a plan with no directory runs on an engine in memory,
// which touches no file. It runs with TMPDIR naming a missing directory,
// and returns what the same plan over a directory returns.
func TestPlanInMemory(t *testing.T) {
	cfg := fastConfig()
	cfg.PretrainCycles = 2000
	cfg.MaxCycles = 2000
	arms := []Arm{{Config: cfg, Scheme: CRC}, {Config: cfg, Scheme: RL}}
	benchmarks := []string{"canneal", "dedup"}
	want, err := RunArms(arms, benchmarks, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	got, err := RunArms(arms, benchmarks, "")
	if err != nil {
		t.Fatalf("a plan in memory with TMPDIR missing: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the plan in memory differs from the same plan over a directory")
	}
}
