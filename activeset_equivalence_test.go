package rlnoc

// Equivalence pins for the activity-proportional cycle loop. Network.Step
// normally iterates only the routers/NIs on its active sets; the dense
// referee path (Network.SetDenseScan) restores the original visit-every-
// router-every-cycle scans through the same phase bodies. The two must be
// bit-identical at a fixed seed: skipping a quiet router is legal exactly
// because a quiet router's phase handlers are no-ops that consume no RNG
// draws and charge no energy. DESIGN.md section 9 states the invariants;
// these tests enforce them end to end (pretrain, measured phase, drain)
// for all four schemes, both topologies, learned routing and a loaded
// 16x16 fabric. hardfault_equivalence_test.go adds mid-run kills.

import (
	"testing"

	"rlnoc/internal/core"
	"rlnoc/internal/traffic"
)

// runScan executes pretrain + a measured uniform phase of cfg at rate
// under the requested stepping path and returns the simulation and its
// Result.
func runScan(t *testing.T, cfg Config, scheme core.Scheme, rate float64, dense bool) (*core.Sim, Result) {
	t.Helper()
	sim, err := core.NewSim(cfg, scheme)
	if err != nil {
		t.Fatal(err)
	}
	sim.Network().SetDenseScan(dense)
	if err := sim.Pretrain(); err != nil {
		t.Fatal(err)
	}
	events, err := traffic.Synthetic(sim.Network().Topology(), traffic.Uniform, rate,
		cfg.FlitsPerPacket, int64(cfg.MaxCycles), cfg.Seed+5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Measure(events, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	return sim, res
}

// assertScansAgree runs cfg on both stepping paths and requires
// byte-identical serialized results.
func assertScansAgree(t *testing.T, name string, cfg Config, scheme core.Scheme, rate float64) {
	t.Helper()
	_, dense := runScan(t, cfg, scheme, rate, true)
	_, active := runScan(t, cfg, scheme, rate, false)
	if d, a := serialize(t, dense), serialize(t, active); d != a {
		t.Errorf("%s: active-set stepping diverged from dense scan:\n dense: %s\nactive: %s", name, d, a)
	}
}

// TestActiveSetMatchesDenseScan runs the same fixed-seed workload through
// the dense scan and the active-set path and requires byte-identical
// serialized stats for every scheme.
func TestActiveSetMatchesDenseScan(t *testing.T) {
	cfg := fastConfig()
	cfg.Seed = 4141
	for _, scheme := range core.Schemes() {
		assertScansAgree(t, string(scheme), cfg, scheme, 0.02)
	}
}

// TestActiveSetMatchesDenseScanTopologies covers what the mesh scheme
// sweep above does not: ARQ's heavy ARQ/ECC wire traffic and RL's control
// plane on the torus's wraparound links, dateline VC classes and non-unit
// wire scales, and qroute's per-router learned routing (RC-stage
// exploration draws, escape-class escalation, TD updates at acceptance)
// on both topologies.
func TestActiveSetMatchesDenseScanTopologies(t *testing.T) {
	cases := []struct {
		scheme core.Scheme
		topo   string
	}{
		{core.SchemeARQ, "torus"},
		{core.SchemeRL, "torus"},
		{core.SchemeQRoute, "mesh"},
		{core.SchemeQRoute, "torus"},
	}
	for _, tc := range cases {
		cfg := fastConfig()
		cfg.Seed = 4242
		cfg.Topology = tc.topo
		if tc.scheme == core.SchemeQRoute && tc.topo == "torus" {
			// qroute on a wraparound fabric quarters the data VCs
			// (escape/adaptive x dateline), so it needs 8 VCs per port.
			cfg.VCsPerPort = 8
		}
		assertScansAgree(t, string(tc.scheme)+"/"+tc.topo, cfg, tc.scheme, 0.02)
	}
}

// TestActiveSetMatchesDenseScanLoaded is the loaded large-fabric sibling:
// a 16x16 mesh at 2.5x the injection rate keeps most routers busy, so the
// active sets churn every cycle rather than sitting mostly empty.
func TestActiveSetMatchesDenseScanLoaded(t *testing.T) {
	if testing.Short() {
		t.Skip("large-fabric equivalence run")
	}
	cfg := fastConfig()
	cfg.Width, cfg.Height = 16, 16
	cfg.Seed = 9090
	// ARQ needs no pretraining; spend the budget on a dense measured
	// phase instead.
	cfg.PretrainCycles = 0
	cfg.WarmupCycles = 100
	cfg.MaxCycles = 600
	cfg.DrainCycles = 5_000
	assertScansAgree(t, "loaded 16x16", cfg, core.SchemeARQ, 0.05)
}
