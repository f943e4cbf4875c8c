package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rlnoc/internal/core"
)

// pathIDs are job IDs that are not one path element: each would put the
// job's checkpoints somewhere other than a directory of its own directly
// under <campaign>/jobs.
var pathIDs = []string{"", ".", "..", "../../escaped", "a/b", "/abs", `a\b`, "a\x00b"}

// TestValidateRejectsPathIDs: a spec whose ID is not a single path
// element is refused by Validate, by Submit and by a journal replayed on
// Open, before any checkpoint is written outside the campaign directory.
func TestValidateRejectsPathIDs(t *testing.T) {
	for _, id := range pathIDs {
		if err := tinySpec(id).Validate(); err == nil {
			t.Errorf("Validate accepted ID %q", id)
		}
	}
	for _, id := range []string{"chaos-0-rl", "...", "a.b", "loadsweep-rl-0.010"} {
		if err := tinySpec(id).Validate(); err != nil {
			t.Errorf("Validate rejected ID %q: %v", id, err)
		}
	}

	root := t.TempDir()
	dir := filepath.Join(root, "a", "campaign")
	eng := openTestEngine(t, Options{Dir: dir})
	escaped := tinySpec("../../escaped")
	escaped.SnapshotEvery = 100
	if err := eng.Submit(escaped); err == nil {
		t.Fatal("Submit accepted ID ../../escaped")
	}
	eng.Close()

	j, _, err := OpenJournal(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: RecSubmit, Job: escaped.ID, Spec: &escaped}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if eng, err := Open(Options{Dir: dir}); err == nil {
		eng.Close()
		t.Fatal("Open resumed a journal submitting ID ../../escaped")
	}
	if _, err := os.Stat(filepath.Join(root, "escaped")); !os.IsNotExist(err) {
		t.Errorf("something was written outside the campaign directory: %v", err)
	}
}

// TestValidateRejectsNegativeBudgets: a negative checkpoint period is
// refused, not run as "none" (specs also arrive from the journal on disk).
func TestValidateRejectsNegativeBudgets(t *testing.T) {
	neg := tinySpec("neg")
	neg.SnapshotEvery = -1
	if err := neg.Validate(); err == nil {
		t.Error("Validate accepted snapshot_every -1")
	}
}

// TestSubmitRejectsBadHardFaults: a hard-fault schedule the run's
// construction would refuse — unparseable, a router outside the fabric,
// a direction that does not exist — is refused by Submit, not taken and
// retried until the job dies.
func TestSubmitRejectsBadHardFaults(t *testing.T) {
	eng := openTestEngine(t, Options{})
	for i, sched := range []string{"garbage", "5:r999", "5:l3.up"} {
		s := tinySpec(fmt.Sprintf("hard-%d", i))
		s.Config.HardFaults = sched
		if err := eng.Submit(s); err == nil {
			t.Errorf("Submit accepted hard_faults %q on a %dx%d mesh", sched, s.Config.Width, s.Config.Height)
		}
	}
	ok := tinySpec("hard")
	ok.Config.HardFaults = "5:r3,9:l5.east"
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate rejected a schedule the fabric can run: %v", err)
	}
}

// TestSubmitRejectsBadTrace: a trace the run could not build — one bad
// value per TraceSpec field, with a benchmark and without — is refused by
// Submit, not taken and retried until the job dies. Seed has no bad
// value: every int64 seeds a trace.
func TestSubmitRejectsBadTrace(t *testing.T) {
	eng := openTestEngine(t, Options{})
	for i, bad := range []struct {
		field string
		set   func(*TraceSpec)
	}{
		{"benchmark", func(tr *TraceSpec) { tr.Benchmark = "quake3" }},
		{"pattern", func(tr *TraceSpec) { tr.Pattern = "zigzag" }},
		{"pattern", func(tr *TraceSpec) { tr.Pattern = "" }},
		{"rate", func(tr *TraceSpec) { tr.Rate = 1.5 }},
		{"rate", func(tr *TraceSpec) { tr.Rate = -0.01 }},
		{"cycles", func(tr *TraceSpec) { tr.Cycles = -1 }},
		{"cycles", func(tr *TraceSpec) { tr.Benchmark, tr.Cycles = "canneal", -1 }},
	} {
		s := tinySpec(fmt.Sprintf("trace-%d", i))
		bad.set(&s.Trace)
		if err := eng.Submit(s); err == nil {
			t.Errorf("Submit accepted a bad %s: trace %+v", bad.field, s.Trace)
		}
	}
	for _, tr := range []TraceSpec{
		{Benchmark: "canneal", Cycles: 300, Seed: -7},
		{Pattern: "transpose", Rate: 1, Cycles: 0, Seed: 1 << 62},
	} {
		s := tinySpec("trace")
		s.Trace = tr
		if err := s.Validate(); err != nil {
			t.Errorf("Validate rejected a trace the run can build, %+v: %v", tr, err)
		}
	}
}

// TestSubmitRejectsUnbuildableScheme: a spec whose config is valid alone
// but not under its scheme — qroute on a torus with 4 VCs per port, where
// escape x dateline classes need 8 — is refused by Submit, as NewSim would
// refuse it, and the same config under rl is taken.
func TestSubmitRejectsUnbuildableScheme(t *testing.T) {
	eng := openTestEngine(t, Options{})
	s := tinySpec("qroute-torus")
	s.Config.Topology, s.Config.VCsPerPort = "torus", 4
	s.Scheme = string(core.SchemeQRoute)
	if _, err := core.NewSim(s.Config, core.SchemeQRoute); err == nil {
		t.Fatal("NewSim built qroute on a torus with 4 VCs per port; the case no longer exercises the rule")
	}
	if err := eng.Submit(s); err == nil {
		t.Error("Submit accepted qroute on a torus with 4 VCs per port, which NewSim refuses")
	}
	s.ID, s.Scheme = "rl-torus", string(core.SchemeRL)
	if err := eng.Submit(s); err != nil {
		t.Errorf("Submit refused rl on a torus with 4 VCs per port: %v", err)
	}
}

// FuzzSpec: whatever the JSON says, a spec Validate accepts names a job
// directory directly inside <campaign>/jobs.
func FuzzSpec(f *testing.F) {
	for _, id := range append([]string{"chaos-0-rl", "..."}, pathIDs...) {
		data, err := json.Marshal(tinySpec(id))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	e := &Engine{dir: filepath.Join("campaign", "dir")}
	jobs := filepath.Join(e.dir, "jobs")
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil || s.Validate() != nil {
			return
		}
		dir := e.jobDir(s.ID)
		if filepath.Dir(dir) != jobs || filepath.Base(dir) != s.ID {
			t.Fatalf("accepted ID %q resolves to %q, not a child of %q", s.ID, dir, jobs)
		}
	})
}
