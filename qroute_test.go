package rlnoc

// Behavioral battery for the qroute scheme (DESIGN.md §13): the learned
// router must actually route (non-zero decisions and TD updates, not a
// silent 100% table fallback), drain cleanly with the full invariant
// layer armed, keep the conservation ledger closed through mid-run
// kills, and populate the per-kill time-to-recover log.

import (
	"testing"

	"rlnoc/internal/core"
	"rlnoc/internal/traffic"
)

// TestQRouteDrainsAndLearns runs a measured phase under checks=all and
// asserts the learned path was exercised: heads consulted the agents,
// TD updates flowed back, and the run drained.
func TestQRouteDrainsAndLearns(t *testing.T) {
	cfg := fastConfig()
	cfg.Seed = 99
	cfg.Checks = "all"
	sim, err := core.NewSim(cfg, core.SchemeQRoute)
	if err != nil {
		t.Fatal(err)
	}
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
	if !res.Drained || res.FlitsDelivered == 0 {
		t.Fatalf("qroute run did not drain: %+v", res)
	}
	net := sim.Network()
	if !net.QRouteEnabled() {
		t.Fatal("qroute scheme did not enable learned routing")
	}
	tel := net.QRouteTelemetry()
	if tel.Decisions == 0 {
		t.Fatalf("no learned routing decisions were made: %s", tel.Format())
	}
	if tel.Updates == 0 {
		t.Fatalf("no TD updates were applied: %s", tel.Format())
	}
	if tel.Fallbacks > 0 {
		// Fault-free fabric: every (src, dst) pair has a productive live
		// port, so the permitted mask can never be empty.
		t.Errorf("table fallbacks on a fault-free fabric: %s", tel.Format())
	}
	if tel.Explorations > tel.Decisions {
		t.Errorf("more explorations than decisions: %s", tel.Format())
	}
	if len(tel.RouterDecisions) != 16 {
		t.Fatalf("RouterDecisions length = %d, want 16", len(tel.RouterDecisions))
	}
	var sum int64
	for _, d := range tel.RouterDecisions {
		sum += d
	}
	if sum != tel.Decisions {
		t.Errorf("per-router decisions sum %d != total %d", sum, tel.Decisions)
	}
}

// TestQRouteDisabledLeavesNetworkClean pins that every other scheme runs
// with the learned-routing machinery entirely absent — the nil-gate that
// keeps the four-scheme golden results byte-identical.
func TestQRouteDisabledLeavesNetworkClean(t *testing.T) {
	cfg := fastConfig()
	sim, err := core.NewSim(cfg, core.SchemeRL)
	if err != nil {
		t.Fatal(err)
	}
	net := sim.Network()
	if net.QRouteEnabled() {
		t.Fatal("rl scheme has learned routing enabled")
	}
	if tel := net.QRouteTelemetry(); tel.Decisions != 0 || tel.RouterDecisions != nil {
		t.Fatalf("non-zero telemetry with qroute disabled: %+v", tel)
	}
	if net.QRouteAgent(0) != nil {
		t.Fatal("QRouteAgent non-nil with qroute disabled")
	}
	if net.RecoveryLog() != nil {
		t.Fatal("recovery log allocated without a hard-fault schedule")
	}
}

// TestQRouteRecoveryLog drives a qroute run through a two-batch kill
// schedule with checks armed and asserts the time-to-recover log: one
// entry per kill batch, each resolved by a later delivery, and the
// conservation ledger still balanced after the drain.
func TestQRouteRecoveryLog(t *testing.T) {
	cfg := fastConfig()
	cfg.Seed = 4242
	cfg.PretrainCycles = 0 // kills land mid-measure
	cfg.HardFaults = "1500:l5.east,3000:r10"
	cfg.Checks = "all"
	sim, err := core.NewSim(cfg, core.SchemeQRoute)
	if err != nil {
		t.Fatal(err)
	}
	events, err := traffic.Synthetic(sim.Network().Topology(), traffic.Uniform, 0.02,
		cfg.FlitsPerPacket, int64(cfg.MaxCycles), cfg.Seed+5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Measure(events, "uniform"); err != nil {
		t.Fatal(err)
	}
	net := sim.Network()
	if led := net.ConservationLedger(); !led.Balanced() {
		t.Fatalf("ledger does not balance after kills: %s", led)
	}
	log := net.RecoveryLog()
	if log == nil {
		t.Fatal("no recovery log despite a hard-fault schedule")
	}
	recov := log.CyclesToRecover()
	if len(recov) != 2 {
		t.Fatalf("recovery entries = %d, want 2 (one per kill batch): %s", len(recov), log.Format())
	}
	for i, r := range recov {
		if r < 0 {
			t.Errorf("kill %d never recovered: %s", i, log.Format())
		}
	}
	for i, e := range log.Entries() {
		want := []int64{1500, 3000}[i]
		if e.KillCycle != want {
			t.Errorf("kill %d recorded at cycle %d, want %d", i, e.KillCycle, want)
		}
	}
}

// TestQRouteConfigRejection pins the validation gates: qroute refuses
// west-first routing and under-provisioned VC counts, but only when the
// scheme is actually selected.
func TestQRouteConfigRejection(t *testing.T) {
	cfg := fastConfig()
	cfg.Routing = "westfirst"
	if _, err := core.NewSim(cfg, core.SchemeQRoute); err == nil {
		t.Error("qroute accepted west-first routing")
	}
	if _, err := core.NewSim(cfg, core.SchemeRL); err != nil {
		t.Errorf("west-first rejected for rl scheme: %v", err)
	}

	cfg = fastConfig()
	cfg.Topology = "torus"
	if _, err := core.NewSim(cfg, core.SchemeQRoute); err == nil {
		t.Error("qroute accepted a torus with 4 VCs/port (needs 8 for escape x dateline classes)")
	}
	cfg.VCsPerPort = 8
	if _, err := core.NewSim(cfg, core.SchemeQRoute); err != nil {
		t.Errorf("qroute rejected a correctly provisioned torus: %v", err)
	}

	cfg = fastConfig()
	cfg.VCsPerPort = 2
	if _, err := core.NewSim(cfg, core.SchemeQRoute); err == nil {
		t.Error("qroute accepted a mesh with 2 VCs/port (needs 4 for escape/adaptive split)")
	}
}
