package rlnoc

// Equivalence pin for hard-fault campaigns. A mid-run kill schedule
// tears through every layer the active sets track — link ARQ state, VC
// buffers, NI replay buffers, the route tables themselves — and prunes
// dead routers from every set, so the active-set walk must remain
// bit-identical to the dense referee through the kill, the re-route and
// the condemned-packet resolution. Checks stay armed the whole way: the
// same runs must also keep the conservation ledger closed at every
// census.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"rlnoc/internal/core"
)

// runHardFaultScan runs a measured synthetic phase through a mid-run kill
// schedule on the requested stepping path, returning the serialized
// Result plus the fault aftermath (dead routers, unreachable pairs,
// conservation ledger) and a digest of the final simulation state (the
// checkpoint stream, which walks every VC, port and ARQ field), so
// divergence in the fault path itself is caught even where the pinned
// Summary would not show it.
func runHardFaultScan(t *testing.T, scheme core.Scheme, topo, sched string, dense bool) string {
	t.Helper()
	cfg := fastConfig()
	cfg.Seed = 4242
	cfg.Topology = topo
	cfg.PretrainCycles = 0 // cycle zero = schedule zero: kills land mid-measure
	cfg.HardFaults = sched
	cfg.Checks = "all"
	if scheme == core.SchemeQRoute && topo == "torus" {
		cfg.VCsPerPort = 8 // escape/adaptive x dateline VC quartering
	}
	sim, res := runScan(t, cfg, scheme, 0.02, dense)
	net := sim.Network()
	led := net.ConservationLedger()
	if !led.Balanced() {
		t.Fatalf("%s/%s dense=%v: ledger does not balance: %s", scheme, topo, dense, led)
	}
	var state bytes.Buffer
	if err := sim.WriteSnapshot(&state); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s dead=%d unreachable=%d drops=%d %s state=%x",
		serialize(t, res), net.DeadRouters(), net.UnreachablePairs(), net.Stats().TotalDrops(), led,
		sha256.Sum256(state.Bytes()))
}

// TestActiveSetMatchesDenseScanHardFaults runs the same fixed-seed
// workload through a mid-run kill schedule on the dense referee and the
// active-set path, requiring byte-identical results and fault aftermath.
// The schedules mix link and router kills; the torus case exercises
// re-routing around a wrap edge under dateline VC classes, and qroute
// rebuilds its surviving-distance table and permitted masks at each kill.
func TestActiveSetMatchesDenseScanHardFaults(t *testing.T) {
	cases := []struct {
		scheme core.Scheme
		topo   string
		sched  string
	}{
		{core.SchemeARQ, "mesh", "1500:l5.east,3000:r10"},
		{core.SchemeRL, "mesh", "1500:l5.east,3000:r10"},
		{core.SchemeRL, "torus", "1200:l3.east,2600:r6"},
		{core.SchemeQRoute, "mesh", "1500:l5.east,3000:r10"},
		{core.SchemeQRoute, "torus", "1200:l3.east,2600:r6"},
	}
	for _, tc := range cases {
		dense := runHardFaultScan(t, tc.scheme, tc.topo, tc.sched, true)
		active := runHardFaultScan(t, tc.scheme, tc.topo, tc.sched, false)
		if dense != active {
			t.Errorf("%s/%s [%s]: active-set stepping diverged from dense scan:\n dense: %s\nactive: %s",
				tc.scheme, tc.topo, tc.sched, dense, active)
		}
	}
}
