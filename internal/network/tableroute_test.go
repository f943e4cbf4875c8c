package network

import (
	"fmt"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/flit"
	"rlnoc/internal/topology"
	"rlnoc/internal/traffic"
)

// tableRouteNet builds a fault-free 4x4 fabric of the given kind whose
// every hop comes from the X-Y route table.
func tableRouteNet(t *testing.T, kind string) *Network {
	t.Helper()
	cfg := testConfig(0)
	cfg.Topology = kind
	return newNet(t, cfg, Mode0, false)
}

// TestTableRouteDeliversEverything drains a uniform trace over the XY
// table on the mesh and the torus and checks every packet arrives.
func TestTableRouteDeliversEverything(t *testing.T) {
	for _, kind := range []string{config.TopologyMesh, config.TopologyTorus} {
		t.Run(kind, func(t *testing.T) {
			n := tableRouteNet(t, kind)
			n.Stats().SetMeasuring(true)
			events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.006, 4, 4000, 11)
			if err != nil {
				t.Fatal(err)
			}
			if !runTrace(t, n, events, 100_000) {
				t.Fatalf("did not drain: %d in flight", n.DataInFlight())
			}
			s := n.Stats().Summarize()
			if s.PacketsDelivered != int64(len(events)) {
				t.Fatalf("delivered %d of %d", s.PacketsDelivered, len(events))
			}
		})
	}
}

// TestTableRouteSurvivesErrorsAndARQ drains a uniform trace over the XY
// table at a 1% per-flit per-hop error rate with SECDED and link ARQ, on
// the mesh and the torus: every packet arrives and none arrives corrupt.
func TestTableRouteSurvivesErrorsAndARQ(t *testing.T) {
	for _, kind := range []string{config.TopologyMesh, config.TopologyTorus} {
		t.Run(kind, func(t *testing.T) {
			cfg := testConfig(0.01)
			cfg.Topology = kind
			n := newNet(t, cfg, Mode1, true)
			n.Stats().SetMeasuring(true)
			events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.004, 4, 4000, 13)
			if err != nil {
				t.Fatal(err)
			}
			if !runTrace(t, n, events, 300_000) {
				t.Fatalf("did not drain: %d in flight", n.DataInFlight())
			}
			s := n.Stats().Summarize()
			if s.PacketsDelivered != int64(len(events)) {
				t.Fatalf("delivered %d of %d", s.PacketsDelivered, len(events))
			}
			if s.SilentCorruption != 0 {
				t.Fatal("silent corruption")
			}
		})
	}
}

// TestTableRouteAdversarialDrain hammers the XY table with the worst
// patterns on the mesh and the torus. At rate 0.02 nothing queues; at
// 0.10 transpose and hotspot back up well past the trace's length, so
// the torus case exercises the dateline VC classes under contention.
// Every case must drain.
func TestTableRouteAdversarialDrain(t *testing.T) {
	for _, kind := range []string{config.TopologyMesh, config.TopologyTorus} {
		for _, rate := range []float64{0.02, 0.10} {
			for _, p := range []traffic.Pattern{traffic.Transpose, traffic.Hotspot, traffic.Tornado} {
				t.Run(fmt.Sprintf("%s/rate%.2f/%s", kind, rate, p), func(t *testing.T) {
					n := tableRouteNet(t, kind)
					events, err := traffic.Synthetic(n.Topology(), p, rate, 4, 5000, 17)
					if err != nil {
						t.Fatal(err)
					}
					if !runTrace(t, n, events, 400_000) {
						t.Fatalf("%s did not drain: %d in flight at cycle %d", p, n.DataInFlight(), n.Cycle())
					}
				})
			}
		}
	}
}

// TestTablePathsAreValidAndMinimal checks the paths packets actually
// record against the table they were routed by, on the mesh and the
// torus: each path runs from Src to Dst over wired links only (Neighbor,
// so wrap links count), is Hops long, and resolves X before it moves in
// Y.
func TestTablePathsAreValidAndMinimal(t *testing.T) {
	for _, kind := range []string{config.TopologyMesh, config.TopologyTorus} {
		t.Run(kind+"/xy", func(t *testing.T) {
			n := tableRouteNet(t, kind)
			fab := n.Topology()
			var pkts []*flit.Packet
			for i := 0; i < 40; i++ {
				src := (i * 7) % fab.Nodes()
				dst := (i*13 + 5) % fab.Nodes()
				if src == dst {
					continue
				}
				p, err := n.NewDataPacket(src, dst, 2, 0)
				if err != nil {
					t.Fatal(err)
				}
				pkts = append(pkts, p)
			}
			for !n.Drained() && n.Cycle() < 50_000 {
				if err := n.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if !n.Drained() {
				t.Fatal("did not drain")
			}
			for _, p := range pkts {
				if err := checkTablePath(fab, p.Src, p.Dst, p.Path); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// checkTablePath reports the first way path breaks the X-Y table-route
// contract for src -> dst.
func checkTablePath(fab topology.Topology, src, dst int, path []int) error {
	if len(path) == 0 || path[0] != src || path[len(path)-1] != dst {
		return fmt.Errorf("path %v does not run %d -> %d", path, src, dst)
	}
	if hops := fab.Hops(src, dst); len(path)-1 != hops {
		return fmt.Errorf("path %v for %d -> %d has %d hops, want %d", path, src, dst, len(path)-1, hops)
	}
	want := fab.Coord(dst).X
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		if !wired(fab, a, b) {
			return fmt.Errorf("path %v steps %d -> %d over no link", path, a, b)
		}
		ca, cb := fab.Coord(a), fab.Coord(b)
		if ca.X == cb.X && ca.X != want {
			return fmt.Errorf("path %v for %d -> %d moves in Y at %d before resolving X", path, src, dst, a)
		}
	}
	return nil
}

// wired reports whether some port of router a leads to router b.
func wired(fab topology.Topology, a, b int) bool {
	for d := topology.North; d < topology.NumPorts; d++ {
		if next, ok := fab.Neighbor(a, d); ok && next == b {
			return true
		}
	}
	return false
}
