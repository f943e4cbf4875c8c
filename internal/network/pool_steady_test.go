package network

import (
	"testing"

	"rlnoc/internal/traffic"
)

// stepLoaded drives a network under continuous uniform traffic until the
// given cycle, injecting events as their cycles come due.
func stepLoaded(t *testing.T, n *Network, events []traffic.Event, idx *int, until int64) {
	t.Helper()
	for n.Cycle() < until {
		for *idx < len(events) && events[*idx].Cycle <= n.Cycle() {
			e := events[*idx]
			if _, err := n.NewDataPacket(e.Src, e.Dst, e.Flits, n.Cycle()); err != nil {
				t.Fatal(err)
			}
			*idx++
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFlitPoolSteadyStateRecycles pins the tentpole property: once the
// network reaches steady state, the flit pool satisfies (nearly) every
// Get from recycled flits instead of allocating. ARQ+ECC is the heaviest
// clone path (retransmission buffer + wire copy per link transmission).
func TestFlitPoolSteadyStateRecycles(t *testing.T) {
	cfg := testConfig(0.0005)
	n := newNet(t, cfg, Mode1, true)
	events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.01,
		cfg.FlitsPerPacket, 10_000, 42)
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	stepLoaded(t, n, events, &idx, 4000) // warm-up: pool grows to working set
	gets0, news0, _ := n.fpool.Stats()
	stepLoaded(t, n, events, &idx, 9000)
	gets1, news1, puts1 := n.fpool.Stats()

	if gets1 == gets0 {
		t.Fatal("no pool traffic in the measured window")
	}
	newFrac := float64(news1-news0) / float64(gets1-gets0)
	if newFrac > 0.02 {
		t.Errorf("steady state allocated %.1f%% of gets (news %d over %d gets); pool not recycling",
			newFrac*100, news1-news0, gets1-gets0)
	}
	if puts1 == 0 {
		t.Error("no flits ever retired to the pool")
	}
}

// TestFlitPoolBalances checks that after a full drain every in-flight
// flit retired back through the pool: gets equal puts plus the flits
// still parked nowhere (all buffers empty once drained, so any imbalance
// would mean leaked or double-freed flits).
func TestFlitPoolBalances(t *testing.T) {
	cfg := testConfig(0.002)
	n := newNet(t, cfg, Mode2, true)
	events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.008,
		cfg.FlitsPerPacket, 5_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !runTrace(t, n, events, 60_000) {
		t.Fatal("network did not drain")
	}
	gets, _, puts := n.fpool.Stats()
	size := n.fpool.Size()
	if gets != puts {
		t.Errorf("pool imbalance after drain: %d gets vs %d puts (leaked %d flits)",
			gets, puts, gets-puts)
	}
	if size == 0 {
		t.Error("drained network should have parked its working set in the pool")
	}
}
