package network

// Property and fuzz coverage for the qroute permitted-action mask
// (DESIGN.md §13). On arbitrary torus fault sets, every bit the mask
// admits must name a live, strictly-productive output port, and the VC
// sub-range an adaptive grant would allocate from — upper data half,
// then dateline class — must be non-empty, or learned heads could wedge
// on a zero-width window. The fuzzer drives the same invariants from
// arbitrary kill sets, including ones that disconnect the fabric.

import (
	"fmt"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/flit"
	"rlnoc/internal/rl"
	"rlnoc/internal/topology"
)

// qrouteTorusConfig provisions a 4x4 torus for learned routing: 8 VCs
// per port so the escape/adaptive x dateline quartering leaves at least
// one VC per class.
func qrouteTorusConfig() config.Config {
	cfg := testConfig(0)
	cfg.Topology = "torus"
	cfg.VCsPerPort = 8
	cfg.QRoute.Enabled = true
	return cfg
}

// torusKillSchedule renders kill entries (router, direction) into a
// cycle-1 hard-fault batch, skipping duplicates.
func torusKillSchedule(kills [][2]int) string {
	s := ""
	seen := map[[2]int]bool{}
	dirs := [4]string{"north", "east", "south", "west"}
	for _, k := range kills {
		if seen[k] {
			continue
		}
		seen[k] = true
		if s != "" {
			s += ","
		}
		s += fmt.Sprintf("1:l%d.%s", k[0], dirs[k[1]])
	}
	return s
}

// newFaultedQRouteNet builds a qroute torus, fires the kill batch, and
// returns the network with its surviving-distance table rebuilt.
func newFaultedQRouteNet(t *testing.T, kills [][2]int) *Network {
	t.Helper()
	cfg := qrouteTorusConfig()
	if sched := torusKillSchedule(kills); sched != "" {
		cfg.HardFaults = sched
	}
	n := newNet(t, cfg, Mode1, true)
	for n.Cycle() < 3 { // fire the cycle-1 batch
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// surviveDist is the test's independent referee: plain BFS over the
// surviving fabric (an edge u->v through direction d survives iff u's
// output port d is alive), computed without touching qrouteState.
func surviveDist(n *Network, dst int) []int {
	nodes := n.topo.Nodes()
	dist := make([]int, nodes)
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := []int{dst}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for d := topology.North; d < topology.NumPorts; d++ {
			u, ok := n.topo.Neighbor(v, d)
			if !ok || dist[u] >= 0 || n.routers[u].outputs[d.Opposite()].dead {
				continue
			}
			dist[u] = dist[v] + 1
			queue = append(queue, u)
		}
	}
	return dist
}

// checkMaskInvariants asserts, for every (here, dst) pair, that the
// permitted mask admits exactly the live strictly-productive ports and
// that each admitted port leaves a non-empty adaptive VC window under
// the dateline rule. Returns the number of non-empty masks so callers
// can sanity-check coverage.
func checkMaskInvariants(t *testing.T, n *Network) int {
	t.Helper()
	nodes := n.topo.Nodes()
	nonEmpty := 0
	for dst := 0; dst < nodes; dst++ {
		ref := surviveDist(n, dst)
		for here := 0; here < nodes; here++ {
			mask := n.qroutePermittedMask(here, dst)
			if here == dst || ref[here] <= 0 {
				if mask != 0 {
					t.Fatalf("mask %04b at (here=%d dst=%d) but dist=%d", mask, here, dst, ref[here])
				}
				continue
			}
			if got := int(n.qr.dist[dst*n.qr.nodes+here]); got != ref[here] {
				t.Fatalf("stored dist(%d->%d)=%d, referee BFS says %d", here, dst, got, ref[here])
			}
			if mask != 0 {
				nonEmpty++
			}
			r := n.routers[here]
			for p := 0; p < rl.RoutePorts; p++ {
				out := topology.North + topology.Direction(p)
				op := r.outputs[out]
				productive := !op.dead && op.hasDownstream() &&
					ref[op.downstream] >= 0 && ref[op.downstream] == ref[here]-1
				admitted := mask&(1<<uint(p)) != 0
				if admitted != productive {
					t.Fatalf("mask bit %v at (here=%d dst=%d out=%v): admitted=%v productive=%v (dist here=%d down=%d)",
						p, here, dst, out, admitted, productive, ref[here], ref[op.downstream])
				}
				if !admitted {
					continue
				}
				// Dateline respect: replay vaTryGrant's window math for an
				// adaptive data head granted through this port. The wrap
				// class must be a valid half and the final window non-empty.
				lo, hi := n.vcRange(false)
				mid := lo + (hi-lo)/2
				lo = mid // adaptive upper half
				if n.wrapVCs {
					cls := n.topo.WrapVCClass(here, dst, out)
					if cls != 0 && cls != 1 {
						t.Fatalf("WrapVCClass(%d,%d,%v) = %d, want 0 or 1", here, dst, out, cls)
					}
					m2 := lo + (hi-lo)/2
					if cls == 0 {
						hi = m2
					} else {
						lo = m2
					}
				}
				if lo >= hi {
					t.Fatalf("empty adaptive VC window at (here=%d dst=%d out=%v): [%d,%d)", here, dst, out, lo, hi)
				}
			}
		}
	}
	return nonEmpty
}

// TestQRoutePermittedMaskFaultFree pins the fault-free torus: every
// non-local pair must offer at least one productive port.
func TestQRoutePermittedMaskFaultFree(t *testing.T) {
	n := newFaultedQRouteNet(t, nil)
	nodes := n.topo.Nodes()
	nonEmpty := checkMaskInvariants(t, n)
	if want := nodes * (nodes - 1); nonEmpty != want {
		t.Fatalf("fault-free torus: %d non-empty masks, want %d", nonEmpty, want)
	}
}

// TestQRoutePermittedMaskRandomFaults sweeps deterministic pseudo-random
// torus fault sets of growing size — from a single cut to enough kills
// to disconnect regions — and checks every mask invariant on each.
func TestQRoutePermittedMaskRandomFaults(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		// Cheap deterministic generator (splitmix-style) so the trial set
		// is stable without seeding global rand.
		x := uint64(trial)*0x9e3779b97f4a7c15 + 0x1234567
		next := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		var kills [][2]int
		for k := 0; k < 1+trial*2; k++ {
			kills = append(kills, [2]int{int(next() % 16), int(next() % 4)})
		}
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			n := newFaultedQRouteNet(t, kills)
			checkMaskInvariants(t, n)
		})
	}
}

// FuzzQRoutePermittedMask feeds arbitrary kill bytes into the fault
// machinery and checks the full mask invariant set on the surviving
// fabric. Each pair of input bytes encodes one link kill (router, dir).
func FuzzQRoutePermittedMask(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1})
	f.Add([]byte{5, 1, 5, 3, 9, 0, 9, 2}) // cuts around two routers
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3}) // isolates router 0
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 24 {
			data = data[:24] // bound the batch; kills beyond ~12 add nothing
		}
		var kills [][2]int
		for i := 0; i+1 < len(data); i += 2 {
			kills = append(kills, [2]int{int(data[i]) % 16, int(data[i+1]) % 4})
		}
		n := newFaultedQRouteNet(t, kills)
		checkMaskInvariants(t, n)
	})
}

// TestQRouteVCWindowSplit pins the adaptive/escape allocation split on
// the mesh: an adaptive head's grant window is the upper half of the
// data VCs, a table-routed head's the lower half, and control traffic is
// untouched by the split.
func TestQRouteVCWindowSplit(t *testing.T) {
	cfg := testConfig(0)
	cfg.QRoute.Enabled = true
	n := newNet(t, cfg, Mode1, true)
	if n.qr == nil {
		t.Fatal("qroute state not built")
	}
	r := n.routers[5]
	op := r.outputs[topology.East]
	vc := r.vc(topology.West, 0)
	pkt, err := n.NewDataPacket(5, 6, 4, 0)
	if err != nil || pkt == nil {
		t.Fatalf("NewDataPacket: (%v, %v)", pkt, err)
	}
	// Stage a routed adaptive head at the VC front the way RC leaves it.
	head := n.nis[5].makeFlit(pkt, 0)
	vc.push(r, head)
	vc.routed = true
	vc.pkt = pkt
	vc.outPort = uint8(topology.East)
	vc.qAdaptive = true
	if !n.vaTryGrant(r, op, topology.East, int(vc.slot)) {
		t.Fatal("adaptive head got no grant on an idle port")
	}
	if lo := n.dataVCs / 2; int(vc.outVC) < lo || int(vc.outVC) >= n.dataVCs {
		t.Fatalf("adaptive grant VC %d outside adaptive window [%d,%d)", vc.outVC, lo, n.dataVCs)
	}
	// Re-stage as an escape (table-routed) head: grant must come from the
	// lower half even though upper-half VCs are free.
	op.vcBusy &^= 1 << uint(vc.outVC)
	vc.outVC = -1
	vc.qAdaptive = false
	if !n.vaTryGrant(r, op, topology.East, int(vc.slot)) {
		t.Fatal("escape head got no grant on an idle port")
	}
	if vc.outVC < 0 || int(vc.outVC) >= n.dataVCs/2 {
		t.Fatalf("escape grant VC %d outside escape window [0,%d)", vc.outVC, n.dataVCs/2)
	}
	_ = flit.Data // keep the import honest if assertions above change
}
