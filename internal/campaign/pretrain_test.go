package campaign

// Pre-train once per (config, scheme) (DESIGN.md §21): the first job
// through a pre-training phase leaves the state it ends in as
// pretrain-<hash>.rlns in the campaign directory, and every other job of
// that (config, scheme), and every retry, restores it. A restore changes
// nothing, so every job must still end with the Result the same spec
// gives when run directly through core.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rlnoc/internal/config"
	"rlnoc/internal/core"
	"rlnoc/internal/network"
)

// sweepBase is a quick pre-training configuration for sweep jobs.
func sweepBase() config.Config {
	cfg := config.Small()
	cfg.PretrainCycles = 3000
	cfg.WarmupCycles = 200
	cfg.MaxCycles = 2000
	return cfg
}

// runDirect runs spec's phases on a core.Sim with no engine around it.
func runDirect(t *testing.T, spec Spec) core.Result {
	t.Helper()
	sim, err := core.NewSim(spec.Config, core.Scheme(spec.Scheme))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if spec.Pretrain {
		if err := sim.Pretrain(); err != nil {
			t.Fatal(err)
		}
	}
	events, err := spec.Trace.Events(spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Measure(events, spec.Label)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkAgainstDirect requires every spec to have ended drained with the
// Result of its direct run.
func checkAgainstDirect(t *testing.T, eng *Engine, specs []Spec) {
	t.Helper()
	byID := map[string]JobResult{}
	for _, r := range eng.Results() {
		byID[r.ID] = r
	}
	for _, spec := range specs {
		r, ok := byID[spec.ID]
		if !ok {
			t.Errorf("job %s: no result", spec.ID)
			continue
		}
		if r.Outcome != OutcomeDrained {
			t.Errorf("job %s ended %s (%s)", spec.ID, r.Outcome, r.Err)
		}
		if got, want := resultJSON(t, r.Result), resultJSON(t, runDirect(t, spec)); got != want {
			t.Errorf("job %s: Result differs from the spec run directly\n got: %s\nwant: %s", spec.ID, got, want)
		}
	}
}

// pretrainFiles lists the pre-trained state files in a campaign directory.
func pretrainFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "pretrain-*.rlns"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// logLines collects supervisor diagnostics for a test to count.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logLines) count(substr string) int {
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

// TestLoadSweepPretrainsOncePerScheme is the campaign's engagement test:
// a two-rate sweep is eight pre-training jobs over four (config, scheme)
// pairs. Eight workers start both jobs of every pair at once, so the
// second of each must wait for the first instead of pre-training beside
// it: four phases run, four states are kept, four jobs start from one.
func TestLoadSweepPretrainsOncePerScheme(t *testing.T) {
	var log logLines
	eng := openTestEngine(t, Options{Workers: 8, Logf: log.logf})
	specs := BuildLoadSweep(sweepBase(), []float64{0.002, 0.006}, 500)
	if len(specs) != 8 {
		t.Fatalf("%d sweep jobs, want 8", len(specs))
	}
	if err := eng.Submit(specs...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if files := pretrainFiles(t, eng.Dir()); len(files) != len(core.Schemes()) {
		t.Errorf("%d pre-trained state files %v, want one per scheme", len(files), files)
	}
	if kept, reused := log.count("pre-trained state kept"), log.count("starts from pre-trained state"); kept != 4 || reused != 4 {
		t.Errorf("%d jobs pre-trained and %d started from a kept state, want 4 and 4:\n%s",
			kept, reused, strings.Join(log.lines, "\n"))
	}
	checkAgainstDirect(t, eng, specs)
}

// TestStaticArmRestoresPretrainedState: a static-* arm — the static oracle
// a learned controller's regret is measured against — is a campaign scheme
// like the figures' four. Its spec validates, its first job keeps the
// pre-trained state, the second restores that file, and both end with the
// Result of the arm run directly.
func TestStaticArmRestoresPretrainedState(t *testing.T) {
	var log logLines
	eng := openTestEngine(t, Options{Workers: 1, Logf: log.logf})
	var specs []Spec
	for _, rate := range []float64{0.002, 0.006} {
		spec := BuildLoadSweep(sweepBase(), []float64{rate}, 0)[0]
		spec.ID = fmt.Sprintf("static-r%g", rate)
		spec.Scheme = string(core.StaticScheme(network.Mode1))
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	if err := eng.Submit(specs...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if files := pretrainFiles(t, eng.Dir()); len(files) != 1 {
		t.Errorf("pre-trained state files %v, want one", files)
	}
	if kept, reused := log.count("pre-trained state kept"), log.count("starts from pre-trained state"); kept != 1 || reused != 1 {
		t.Errorf("%d jobs pre-trained and %d started from a kept state, want 1 and 1:\n%s",
			kept, reused, strings.Join(log.lines, "\n"))
	}
	checkAgainstDirect(t, eng, specs)
}

// TestCorruptPretrainedStateQuarantined truncates the kept state between
// two jobs that share it: the second must quarantine the file, pre-train
// for itself, keep a good file in its place and end as if nothing
// happened.
func TestCorruptPretrainedStateQuarantined(t *testing.T) {
	eng := openTestEngine(t, Options{Workers: 1})
	var specs []Spec
	for _, spec := range BuildLoadSweep(sweepBase(), []float64{0.002, 0.006}, 0) {
		if spec.Scheme == string(core.SchemeRL) {
			specs = append(specs, spec)
		}
	}
	run := func(spec Spec) {
		t.Helper()
		if err := eng.Submit(spec); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	run(specs[0])
	files := pretrainFiles(t, eng.Dir())
	if len(files) != 1 {
		t.Fatalf("pre-trained state files after one job: %v", files)
	}
	whole, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	run(specs[1])
	if _, err := os.Stat(files[0] + ".corrupt"); err != nil {
		t.Errorf("truncated state not quarantined: %v", err)
	}
	if again, err := os.ReadFile(files[0]); err != nil || len(again) != len(whole) {
		t.Errorf("no good state kept in the quarantined one's place: %d bytes (%v), want %d", len(again), err, len(whole))
	}
	checkAgainstDirect(t, eng, specs)
}

// TestDTJobCheckpointsAndResumes crashes a pre-training DT job in its
// measured phase. The DT controller used to refuse to snapshot, so such a
// job could only start over; now the retry restores the job's own newest
// checkpoint — trained tree, decision counters and all — or, when the job
// keeps none, the pre-trained state its first attempt left, and either way
// ends with the uninterrupted Result.
func TestDTJobCheckpointsAndResumes(t *testing.T) {
	for _, every := range []int64{1000, 0} {
		t.Run(fmt.Sprintf("snapshot-every=%d", every), func(t *testing.T) {
			spec := Spec{
				ID:            "dt-crash",
				Config:        sweepBase(),
				Scheme:        "dt",
				Label:         "sweep",
				Pretrain:      true,
				Trace:         TraceSpec{Pattern: "uniform", Rate: 0.004, Cycles: 2000, Seed: 12},
				SnapshotEvery: every,
				// Pre-training ends a little after cycle 3000; the panic falls
				// past the measured phase's first checkpoint.
				Inject: InjectSpec{PanicAtCycle: 4500},
			}
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			var log logLines
			eng := openTestEngine(t, Options{Workers: 1, Logf: log.logf,
				BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond})
			if err := eng.Submit(spec); err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			r := eng.Results()[0]
			fromCheckpoint := every > 0
			fromPretrained := log.count("starts from pre-trained state") == 1
			if r.Attempts != 1 || r.Recovered != fromCheckpoint || fromPretrained == fromCheckpoint {
				t.Errorf("%d failed attempts, restored a checkpoint = %v, restored the pre-trained state = %v; want one crash and a restore of %s",
					r.Attempts, r.Recovered, fromPretrained,
					map[bool]string{true: "the checkpoint", false: "the pre-trained state"}[fromCheckpoint])
			}
			checkAgainstDirect(t, eng, []Spec{spec})
		})
	}
}
