package core

// Fast-forward x snapshot alignment (DESIGN.md §16): a periodic
// checkpoint whose boundary falls inside a span the loop would skip must
// still be written on the exact boundary cycle — the fast-forward gate
// stops one cycle short so the boundary is reached through a normal
// Step. The trace here has two traffic clusters separated by a long idle
// gap; the second snapshot boundary lands inside the gap.

import (
	"fmt"
	"os"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/traffic"
)

func ffSnapConfig(perCycle bool) config.Config {
	cfg := config.Small()
	cfg.PretrainCycles = 0
	cfg.WarmupCycles = 300
	cfg.MaxCycles = 8000
	cfg.DrainCycles = 4000
	cfg.Seed = 424242
	cfg.NoFastForward = perCycle
	return cfg
}

// ffGapTrace: a burst at the start, then one straggler deep in an idle
// gap, so snapshot boundaries at 2048 and 4096 both fall after the
// burst drained and before the straggler — squarely inside the span
// fast-forward jumps.
func ffGapTrace() []traffic.Event {
	events := []traffic.Event{}
	for i := 0; i < 12; i++ {
		events = append(events, traffic.Event{Cycle: int64(i * 3), Src: i, Dst: 15 - i, Flits: 4})
	}
	events = append(events, traffic.Event{Cycle: 6500, Src: 3, Dst: 12, Flits: 4})
	return events
}

func runFFSnapshots(t *testing.T, perCycle bool) (fp string, cycles []int64, paths []string) {
	t.Helper()
	dir := t.TempDir()
	sim, err := NewSim(ffSnapConfig(perCycle), SchemeRL)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.SetSnapshotPolicy(dir, 2048)
	res, err := sim.Measure(ffGapTrace(), "ffgap")
	if err != nil {
		t.Fatal(err)
	}
	paths, cycles = snapshotCycles(t, dir)
	return fmt.Sprintf("cycle=%d %s", sim.Network().Cycle(), fingerprint(t, res, sim)), cycles, paths
}

func TestFastForwardSnapshotLandsOnBoundary(t *testing.T) {
	refFP, refCycles, refPaths := runFFSnapshots(t, true)
	ffFP, ffCycles, ffPaths := runFFSnapshots(t, false)

	if refFP != ffFP {
		t.Errorf("results diverged:\n  per-cycle: %s\n  fast-fwd:  %s", refFP, ffFP)
	}
	if len(refCycles) != len(ffCycles) {
		t.Fatalf("snapshot counts differ: per-cycle %v, fast-forward %v", refCycles, ffCycles)
	}
	sawGapBoundary := false
	for i := range refCycles {
		if refCycles[i] != ffCycles[i] {
			t.Fatalf("snapshot %d cycle mismatch: per-cycle %d, fast-forward %d", i, refCycles[i], ffCycles[i])
		}
		if refCycles[i] == 4096 {
			sawGapBoundary = true
		}
	}
	if !sawGapBoundary {
		t.Fatalf("no snapshot at cycle 4096 (inside the idle gap); got %v", ffCycles)
	}

	// The checkpoint written mid-jump must also be semantically
	// identical: resuming both runs' gap-interior snapshots under one
	// config (fast-forward on, the default) must finish byte-identically.
	// The raw files differ only in the embedded config's
	// no_fast_forward field, so equality is asserted on the resumed
	// outcome rather than the bytes.
	var resumed []string
	for _, pair := range [][]string{refPaths, ffPaths} {
		var path string
		for i, c := range refCycles {
			if c == 4096 {
				path = pair[i]
			}
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := RestoreSimTuned(f, func(cfg *config.Config) { cfg.NoFastForward = false })
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.ResumeMeasure()
		if err != nil {
			t.Fatal(err)
		}
		resumed = append(resumed, fmt.Sprintf("cycle=%d %s", sim.Network().Cycle(), fingerprint(t, res, sim)))
		sim.Close()
	}
	if resumed[0] != resumed[1] {
		t.Errorf("resumes from the gap-interior checkpoint diverged:\n  from per-cycle run: %s\n  from fast-fwd run:  %s",
			resumed[0], resumed[1])
	}
}

// TestFastForwardEngages counts loop iterations. The equivalence referees
// prove a jump changes nothing, so a fast-forward that silently stopped
// firing would pass every one of them; pollControl ticks progTick once
// per iteration of the one loop (Sim.drive) in either of its roles,
// pre-training and measurement, and over a mostly idle program the
// jumping run must take at most a quarter of the per-cycle run's
// iterations. With checks armed the census boundaries join the horizon,
// which only adds a stop every 1024 cycles.
func TestFastForwardEngages(t *testing.T) {
	// Pre-training replays pretrainSegments; a one-packet-per-thousand-
	// cycles program leaves its loop as idle as ffGapTrace leaves Measure's.
	defer func(segs []traffic.Segment) { pretrainSegments = segs }(pretrainSegments)
	pretrainSegments = []traffic.Segment{{Pattern: traffic.Uniform, Rate: 0.0001}}

	for _, tc := range []struct {
		name     string
		pretrain int
		run      func(*Sim) error
	}{
		{"measure", 0, func(s *Sim) error { _, err := s.Measure(ffGapTrace(), "ffgap"); return err }},
		{"pretrain", 8000, (*Sim).Pretrain},
	} {
		t.Run(tc.name, func(t *testing.T) {
			iterations := func(perCycle bool) int {
				cfg := ffSnapConfig(perCycle)
				cfg.PretrainCycles = tc.pretrain
				sim, err := NewSim(cfg, SchemeRL)
				if err != nil {
					t.Fatal(err)
				}
				defer sim.Close()
				if err := tc.run(sim); err != nil {
					t.Fatal(err)
				}
				return sim.progTick
			}
			perCycle, ff := iterations(true), iterations(false)
			t.Logf("loop iterations: per-cycle %d, fast-forward %d", perCycle, ff)
			if ff*4 > perCycle {
				t.Errorf("fast-forward took %d iterations against %d per-cycle: the jump is not engaging", ff, perCycle)
			}
		})
	}
}
