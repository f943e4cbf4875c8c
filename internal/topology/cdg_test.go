package topology_test

import (
	"fmt"
	"strings"
	"testing"

	"rlnoc/internal/topology"
)

// The deadlock oracle for route tables (Dally & Seitz): a table whose
// channel-dependency graph is acyclic cannot deadlock on its own routes.
// A node is a channel a packet can hold — (router, output port, VC class)
// — and an edge joins two channels one packet holds in a row on some
// live route.

// cdgClasses is the number of VC classes a channel splits into: the two
// dateline classes of WrapVCClass.
const cdgClasses = 2

func cdgNode(router int, out topology.Direction, class int) int {
	return (router*int(topology.NumPorts)+int(out))*cdgClasses + class
}

func cdgName(node int) string {
	class := node % cdgClasses
	node /= cdgClasses
	return fmt.Sprintf("%d.%v/%d", node/int(topology.NumPorts), topology.Direction(node%int(topology.NumPorts)), class)
}

// buildCDG builds the channel-dependency graph of topo's live route table
// with class giving each hop's VC class. Tables route per destination, so
// the hop out of every router with a live cell toward dst, followed by
// the next router's hop toward dst, covers every pair of consecutive hops
// on every live (src, dst) route.
func buildCDG(t testing.TB, topo topology.Topology, class func(here, dst int, out topology.Direction) int) [][]int {
	t.Helper()
	n := topo.Nodes()
	adj := make([][]int, cdgNode(n, 0, 0))
	for dst := 0; dst < n; dst++ {
		for here := 0; here < n; here++ {
			out := topo.Route(here, dst)
			if here == dst || out == topology.Unreachable {
				continue
			}
			next, ok := topo.Neighbor(here, out)
			if !ok {
				t.Fatalf("%s: route %d->%d leaves the fabric at %v", topo.Kind(), here, dst, out)
			}
			if next == dst {
				continue
			}
			out2 := topo.Route(next, dst)
			if out2 == topology.Unreachable || out2 == topology.Local {
				t.Fatalf("%s: route %d->%d stops at %d with %v", topo.Kind(), here, dst, next, out2)
			}
			a := cdgNode(here, out, class(here, dst, out))
			adj[a] = append(adj[a], cdgNode(next, out2, class(next, dst, out2)))
		}
	}
	return adj
}

// cdgCycle returns the channels of one cycle in adj, nil when it is
// acyclic (iterative depth-first search).
func cdgCycle(adj [][]int) []int {
	const (
		unseen = iota
		open
		done
	)
	state := make([]uint8, len(adj))
	parent := make([]int, len(adj))
	type frame struct{ v, next int }
	for root := range adj {
		if state[root] != unseen {
			continue
		}
		state[root] = open
		stack := []frame{{root, 0}}
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.next == len(adj[top.v]) {
				state[top.v] = done
				stack = stack[:len(stack)-1]
				continue
			}
			v, w := top.v, adj[top.v][top.next]
			top.next++
			switch state[w] {
			case unseen:
				state[w], parent[w] = open, v
				stack = append(stack, frame{w, 0})
			case open:
				cycle := []int{w}
				for u := v; u != w; u = parent[u] {
					cycle = append(cycle, u)
				}
				return cycle
			}
		}
	}
	return nil
}

// deadlockCycle is the oracle: the channels of a dependency cycle in
// topo's live table with the dateline classes composed, rendered
// "router.port/class", or "" when the table is deadlock-free.
func deadlockCycle(t testing.TB, topo topology.Topology) string {
	t.Helper()
	cycle := cdgCycle(buildCDG(t, topo, topo.WrapVCClass))
	names := make([]string, len(cycle))
	for i, node := range cycle {
		names[len(cycle)-1-i] = cdgName(node)
	}
	return strings.Join(names, " -> ")
}

// TestHealthyTablesAreDeadlockFree: the X-Y tables of every healthy mesh
// and torus have an acyclic channel-dependency graph once the dateline
// classes are composed.
func TestHealthyTablesAreDeadlockFree(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		for _, wh := range pinDims() {
			topo, _ := buildFabric(t, wrap, wh[0], wh[1])
			if c := deadlockCycle(t, topo); c != "" {
				t.Errorf("%s %dx%d: dependency cycle %s", topo.Kind(), wh[0], wh[1], c)
			}
		}
	}
}

// TestOracleSeesRingCycles: without its dateline classes a torus's rings
// are dependency cycles, so the oracle must report one — and the cycle
// finder must find the smallest one it is handed.
func TestOracleSeesRingCycles(t *testing.T) {
	if c := cdgCycle([][]int{{1}, {2}, {0}}); len(c) != 3 {
		t.Errorf("three-node ring: cycle %v", c)
	}
	if c := cdgCycle([][]int{{1, 2}, {2}, {}}); c != nil {
		t.Errorf("acyclic graph: cycle %v", c)
	}
	topo, _ := buildFabric(t, true, 4, 4)
	noClasses := func(int, int, topology.Direction) int { return 0 }
	if cdgCycle(buildCDG(t, topo, noClasses)) == nil {
		t.Error("4x4 torus without dateline classes reported acyclic")
	}
}
