package rlnoc

// Equivalence pin for the sharded parallel cycle loop. Network.Step with
// StepWorkers > 1 fans each phase's compute across contiguous router-ID
// shards and commits cross-shard effects in ascending (router, port)
// order; with workers = 1 it runs the fully-ordered sequential walk.
// The two must be bit-identical at a fixed seed for *every* worker
// count: randomness comes from counter-based streams keyed on (seed,
// link/node, cycle) rather than a shared draw order, and the commit
// replays order-sensitive effects in exactly the sequential order.
// DESIGN.md section 11 states the invariants; this test enforces them
// end to end (pretrain, measured phase, drain) across schemes, both
// topologies and worker counts 1/2/4/7 — including 7, which does not
// divide the node count, so shard boundaries fall mid-word in the
// activity bitsets.

import (
	"testing"

	"rlnoc/internal/core"
	"rlnoc/internal/traffic"
)

// runWithWorkers executes pretrain + a measured synthetic phase with the
// given step-worker count and returns the full Result.
func runWithWorkers(t *testing.T, scheme core.Scheme, topo string, workers int) Result {
	t.Helper()
	cfg := fastConfig()
	cfg.Seed = 4242
	cfg.Topology = topo
	cfg.StepWorkers = workers
	if scheme == core.SchemeQRoute && topo == "torus" {
		// qroute on a wraparound fabric quarters the data VCs
		// (escape/adaptive x dateline), so it needs 8 VCs per port.
		cfg.VCsPerPort = 8
	}
	sim, err := core.NewSim(cfg, scheme)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Pretrain(); err != nil {
		t.Fatal(err)
	}
	events, err := traffic.Synthetic(sim.Network().Topology(), traffic.Uniform, 0.02,
		cfg.FlitsPerPacket, int64(cfg.MaxCycles), cfg.Seed+5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Measure(events, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParallelStepMatchesSequential runs the same fixed-seed workload at
// worker counts 1 (the sequential referee), 2, 4 and 7 and requires
// byte-identical serialized stats. ARQ exercises the heaviest ARQ/ECC
// wire traffic on the mesh, RL adds the control plane; the torus case
// covers wraparound links, dateline VC classes and non-unit wire scales.
func TestParallelStepMatchesSequential(t *testing.T) {
	cases := []struct {
		scheme core.Scheme
		topo   string
	}{
		{core.SchemeARQ, "mesh"},
		{core.SchemeRL, "mesh"},
		{core.SchemeRL, "torus"},
		// qroute adds per-router learned routing: RC-stage exploration
		// draws and escape-class escalation on worker goroutines, TD
		// updates at the wire commit. Both topologies must stay
		// bit-identical across shard layouts.
		{core.SchemeQRoute, "mesh"},
		{core.SchemeQRoute, "torus"},
	}
	for _, tc := range cases {
		ref := serialize(t, runWithWorkers(t, tc.scheme, tc.topo, 1))
		for _, workers := range []int{2, 4, 7} {
			got := serialize(t, runWithWorkers(t, tc.scheme, tc.topo, workers))
			if got != ref {
				t.Errorf("%s/%s: %d-worker stepping diverged from sequential:\n  seq: %s\n  par: %s",
					tc.scheme, tc.topo, workers, ref, got)
			}
		}
	}
}

// TestParallelStepMatchesSequentialLoaded is the loaded large-fabric
// sibling of the test above: a 16x16 mesh at 2.5x the injection rate
// stages hundreds of wire ops per cycle, well past the
// commitWiresParallelMin threshold, so the concurrent wire-commit pass
// (workers applying owned-router ops in place, ejections replayed in
// global order on the main goroutine) and the fused local phase are
// exercised for real. The 4x4 cases above never cross the threshold
// and only validate the serial replay path.
func TestParallelStepMatchesSequentialLoaded(t *testing.T) {
	if testing.Short() {
		t.Skip("large-fabric equivalence run")
	}
	run := func(workers int) string {
		cfg := fastConfig()
		cfg.Width, cfg.Height = 16, 16
		cfg.Seed = 9090
		cfg.StepWorkers = workers
		// ARQ needs no pretraining; spend the budget on a dense
		// measured phase instead.
		cfg.PretrainCycles = 0
		cfg.WarmupCycles = 100
		cfg.MaxCycles = 600
		cfg.DrainCycles = 5_000
		sim, err := core.NewSim(cfg, core.SchemeARQ)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		if err := sim.Pretrain(); err != nil {
			t.Fatal(err)
		}
		events, err := traffic.Synthetic(sim.Network().Topology(), traffic.Uniform, 0.05,
			cfg.FlitsPerPacket, int64(cfg.MaxCycles), cfg.Seed+5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Measure(events, "uniform")
		if err != nil {
			t.Fatal(err)
		}
		return serialize(t, res)
	}
	ref := run(1)
	for _, workers := range []int{2, 4, 7} {
		if got := run(workers); got != ref {
			t.Errorf("loaded 16x16: %d-worker stepping diverged from sequential:\n  seq: %s\n  par: %s",
				workers, ref, got)
		}
	}
}
