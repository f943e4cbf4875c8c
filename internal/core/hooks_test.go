package core

// The cycle loop's periodic hooks (Sim.drive): a checkpoint lands on
// every cycle base + k·every of the measured phase, an observer on every
// multiple of its period, and neither moves the result. The trace has a
// burst, then one straggler deep in an idle gap, so hook boundaries fall
// both in traffic and in the drained stretch between.

import (
	"fmt"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/traffic"
)

func hookConfig() config.Config {
	cfg := config.Small()
	cfg.PretrainCycles = 700 // so the measured phase starts off any boundary
	cfg.WarmupCycles = 300
	cfg.MaxCycles = 8000
	cfg.DrainCycles = 4000
	cfg.Seed = 424242
	return cfg
}

func gapTrace() []traffic.Event {
	events := []traffic.Event{}
	for i := 0; i < 12; i++ {
		events = append(events, traffic.Event{Cycle: int64(i * 3), Src: i, Dst: 15 - i, Flits: 4})
	}
	return append(events, traffic.Event{Cycle: 6500, Src: 3, Dst: 12, Flits: 4})
}

// runHooked runs pretrain+measure over gapTrace, with checkpoints every
// snapEvery and an observer every observeEvery cycles (0 = off), and
// returns the result fingerprint, the phase's first cycle, the cycle it
// ended on, and the cycles each hook fired on.
func runHooked(t *testing.T, snapEvery, observeEvery int64) (fp string, base, end int64, snaps, observed []int64) {
	t.Helper()
	dir := t.TempDir()
	sim, err := NewSim(hookConfig(), SchemeRL)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Pretrain(); err != nil {
		t.Fatal(err)
	}
	base = sim.Network().Cycle()
	if snapEvery > 0 {
		sim.SetSnapshotPolicy(dir, snapEvery)
	}
	if observeEvery > 0 {
		sim.SetObserver(observeEvery, func(s Snapshot) { observed = append(observed, s.Cycle) })
	}
	res, err := sim.Measure(gapTrace(), "gap")
	if err != nil {
		t.Fatal(err)
	}
	if snapEvery > 0 {
		_, snaps = snapshotCycles(t, dir)
	}
	end = sim.Network().Cycle()
	return fingerprint(t, res, sim), base, end, snaps, observed
}

// everyBoundary lists the cycles origin + k·every, k ≥ 1, in [from, to].
func everyBoundary(origin, every, from, to int64) []int64 {
	var out []int64
	for c := origin + every; c <= to; c += every {
		if c >= from {
			out = append(out, c)
		}
	}
	return out
}

func TestHooksLandOnBoundaries(t *testing.T) {
	const snapEvery, observeEvery = 2048, 1000
	plain, _, _, _, _ := runHooked(t, 0, 0)
	fp, base, end, snaps, observed := runHooked(t, snapEvery, observeEvery)
	if fp != plain {
		t.Errorf("hooks moved the result:\n  plain:  %s\n  hooked: %s", plain, fp)
	}
	if base%snapEvery == 0 || base%observeEvery == 0 {
		t.Fatalf("phase base %d sits on a hook period; the test cannot tell the origins apart", base)
	}
	if want := everyBoundary(base, snapEvery, base, end); fmt.Sprint(snaps) != fmt.Sprint(want) {
		t.Errorf("checkpoints at %v, want base %d + k·%d: %v", snaps, base, snapEvery, want)
	}
	if want := everyBoundary(0, observeEvery, base+1, end); fmt.Sprint(observed) != fmt.Sprint(want) {
		t.Errorf("observer at %v, want every multiple of %d in (%d, %d]: %v", observed, observeEvery, base, end, want)
	}
	// The straggler at base+6500 leaves the checkpoint at base+4096 in
	// the drained gap: a boundary with no traffic is still a boundary.
	gap := base + 2*snapEvery
	found := false
	for _, c := range snaps {
		found = found || c == gap
	}
	if !found {
		t.Errorf("no checkpoint at %d, inside the idle gap; got %v", gap, snaps)
	}
}
