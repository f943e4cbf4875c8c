package network

import (
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/stats"
	"rlnoc/internal/traffic"
)

// hardFaultConfig arms a small fabric with a hard-fault schedule and
// every invariant check, so any conservation or credit leak the fault
// machinery introduces fails the test at the next census.
func hardFaultConfig(topo, sched string) config.Config {
	c := testConfig(0)
	c.Topology = topo
	c.HardFaults = sched
	c.Checks = "all"
	return c
}

// uniformEvents synthesizes a deterministic uniform workload for the
// configured fabric.
func uniformEvents(t *testing.T, n *Network, rate float64, cycles int64) []traffic.Event {
	t.Helper()
	events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, rate, 4, cycles, 99)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// assertBalanced fails unless the packet-conservation account closes.
func assertBalanced(t *testing.T, n *Network) {
	t.Helper()
	if led := n.ConservationLedger(); !led.Balanced() {
		t.Fatalf("conservation ledger does not balance: %s", led)
	}
}

// TestHardFaultLinkKillDrains kills an interior mesh link while traffic
// crosses it. The fabric must re-route around the cut, complete every
// packet (the mesh stays connected, so nothing becomes unreachable), and
// keep the conservation ledger closed under full invariant checking.
func TestHardFaultLinkKillDrains(t *testing.T) {
	cfg := hardFaultConfig("mesh", "400:l5.east")
	n := newNet(t, cfg, Mode1, true)
	events := uniformEvents(t, n, 0.02, 2000)
	if !runTrace(t, n, events, 30_000) {
		t.Fatal("network did not drain after link kill")
	}
	if n.UnreachablePairs() != 0 {
		t.Errorf("mesh stays connected minus one link, got %d unreachable pairs", n.UnreachablePairs())
	}
	if n.DeadRouters() != 0 {
		t.Errorf("no router died, got %d", n.DeadRouters())
	}
	assertBalanced(t, n)
}

// TestHardFaultRouterKillDeclares kills an interior router mid-traffic.
// Every pair involving the dead router must be declared unreachable, all
// other traffic must still drain, and every discarded flit must flow
// through a counted drop reason so the ledger closes.
func TestHardFaultRouterKillDeclares(t *testing.T) {
	cfg := hardFaultConfig("mesh", "400:r5")
	n := newNet(t, cfg, Mode1, true)
	events := uniformEvents(t, n, 0.02, 2000)
	if !runTrace(t, n, events, 30_000) {
		t.Fatal("network did not drain after router kill")
	}
	if n.DeadRouters() != 1 {
		t.Fatalf("want 1 dead router, got %d", n.DeadRouters())
	}
	nodes := n.Topology().Nodes()
	if want := 2 * (nodes - 1); n.UnreachablePairs() != want {
		t.Errorf("want %d unreachable pairs around the dead router, got %d", want, n.UnreachablePairs())
	}
	if n.Stats().DropCounts()[stats.DropDeadRouter] == 0 {
		t.Error("router kill recorded no dead-router drops")
	}
	assertBalanced(t, n)
}

// TestHardFaultInjectionRefusal pins the injection screen: once a router
// is dead, new packets to or from it are refused (counted as drops, not
// injected), so sources cannot accumulate undeliverable traffic.
func TestHardFaultInjectionRefusal(t *testing.T) {
	cfg := hardFaultConfig("mesh", "10:r5")
	n := newNet(t, cfg, Mode1, true)
	for n.Cycle() < 20 {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	before := n.ConservationLedger().Injected
	if pkt, err := n.NewDataPacket(0, 5, 4, n.Cycle()); err != nil || pkt != nil {
		t.Fatalf("packet to dead router: got (%v, %v), want (nil, nil)", pkt, err)
	}
	if pkt, err := n.NewDataPacket(5, 0, 4, n.Cycle()); err != nil || pkt != nil {
		t.Fatalf("packet from dead router: got (%v, %v), want (nil, nil)", pkt, err)
	}
	if after := n.ConservationLedger().Injected; after != before {
		t.Errorf("refused packets were counted as injected: %d -> %d", before, after)
	}
	if n.Stats().DropCounts()[stats.DropDeadRouter] < 2 {
		t.Errorf("refusals not counted: %d dead-router drops", n.Stats().DropCounts()[stats.DropDeadRouter])
	}
}

// TestTorusRingLinkDeadDrains is the dateline drain check: killing a
// wraparound link turns one torus ring into a line, forcing every route
// that used the wrap onto detours. The rebuilt routes must stay
// deadlock-free (the dateline escape class is coordinate-derived, so
// detours keep it) and the fabric must drain completely.
func TestTorusRingLinkDeadDrains(t *testing.T) {
	// Router 3 sits at x=3 on the 4x4 torus; its east link is the row-0
	// wrap edge back to router 0.
	cfg := hardFaultConfig("torus", "400:l3.east")
	n := newNet(t, cfg, Mode1, true)
	if n.Topology().Kind() != "torus" {
		t.Fatal("config did not build a torus")
	}
	events := uniformEvents(t, n, 0.02, 2000)
	if !runTrace(t, n, events, 30_000) {
		t.Fatal("torus did not drain with a ring link dead")
	}
	if n.UnreachablePairs() != 0 {
		t.Errorf("torus stays connected minus one link, got %d unreachable pairs", n.UnreachablePairs())
	}
	assertBalanced(t, n)
}
