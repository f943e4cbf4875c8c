package topology

import "testing"

// deadSet is a test predicate over directed edges; Kill severs a link in
// both directions, the way the network kills links.
type deadSet map[[2]int]bool

func (d deadSet) Kill(t Topology, id int, dir Direction) {
	nb, ok := t.Neighbor(id, dir)
	if !ok {
		panic("killing unwired link")
	}
	d[[2]int{id, int(dir)}] = true
	d[[2]int{nb, int(dir.Opposite())}] = true
}

func (d deadSet) Pred(id int, dir Direction) bool { return d[[2]int{id, int(dir)}] }

// walkRoute follows the rebuilt route table from src to dst, failing on
// a dead link, an unreachable cell, or a walk longer than the node count
// (a loop). It returns the hop sequence as (router, out) pairs.
func walkRoute(t *testing.T, topo Topology, dead deadSet, src, dst int) [][2]int {
	t.Helper()
	var hops [][2]int
	here := src
	for here != dst {
		out := topo.Route(here, dst)
		if out == Unreachable {
			t.Fatalf("route %d->%d hit Unreachable at %d", src, dst, here)
		}
		if dead.Pred(here, out) {
			t.Fatalf("route %d->%d crosses dead link %d.%v", src, dst, here, out)
		}
		next, ok := topo.Neighbor(here, out)
		if !ok {
			t.Fatalf("route %d->%d leaves the fabric at %d.%v", src, dst, here, out)
		}
		hops = append(hops, [2]int{here, int(out)})
		here = next
		if len(hops) > topo.Nodes() {
			t.Fatalf("route %d->%d loops: %v", src, dst, hops)
		}
	}
	return hops
}

// TestRerouteMeshAroundDeadLink severs one interior mesh link and
// requires every pair to remain routable over surviving edges only.
func TestRerouteMeshAroundDeadLink(t *testing.T) {
	m, err := NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	dead := deadSet{}
	dead.Kill(m, 5, East)
	if got := m.Reroute(dead.Pred); got != 0 {
		t.Fatalf("mesh minus one link is connected, Reroute reported %d unreachable pairs", got)
	}
	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			if src != dst {
				walkRoute(t, m, dead, src, dst)
			}
		}
	}
}

// TestReroutePreservesUnaffectedRoutes pins the table-rebuild preference
// for the previous cell: traffic whose dimension-ordered route never
// touched the dead link keeps its exact healthy route.
func TestReroutePreservesUnaffectedRoutes(t *testing.T) {
	healthy, err := NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	dead := deadSet{}
	dead.Kill(m, 0, East) // bottom-left corner link 0-1
	m.Reroute(dead.Pred)
	// The top row (ids 12..15) routes among itself without ever entering
	// row 0; those cells must be byte-identical to the healthy table.
	for src := 12; src < 16; src++ {
		for dst := 12; dst < 16; dst++ {
			if got, want := m.Route(src, dst), healthy.Route(src, dst); got != want {
				t.Errorf("route %d->%d changed from %v to %v though the fault is rows away", src, dst, want, got)
			}
		}
	}
}

// TestRerouteCountsUnreachablePairs isolates a corner router by cutting
// both its links and checks the unreachable accounting: 2*(n-1) ordered
// pairs, symmetric Route sentinels, and Reachable agreeing.
func TestRerouteCountsUnreachablePairs(t *testing.T) {
	m, err := NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	dead := deadSet{}
	dead.Kill(m, 0, East)
	dead.Kill(m, 0, North)
	want := 2 * (m.Nodes() - 1)
	if got := m.Reroute(dead.Pred); got != want {
		t.Fatalf("isolated corner: want %d unreachable pairs, got %d", want, got)
	}
	for other := 1; other < m.Nodes(); other++ {
		if m.Route(0, other) != Unreachable || m.Route(other, 0) != Unreachable {
			t.Fatalf("pair (0,%d) not marked Unreachable both ways", other)
		}
		if Reachable(m, 0, other) || Reachable(m, other, 0) {
			t.Fatalf("Reachable(0,%d) disagrees with the table", other)
		}
	}
	if !Reachable(m, 0, 0) {
		t.Error("self-reachability must survive isolation")
	}
}

// TestTorusRerouteDatelineSafety walks every surviving (src, dst) route
// of rebuilt torus tables and requires that (a) any hop crossing a
// wraparound edge rides the class-0 side of the dateline — WrapVCClass
// assigns the wrap crossing itself to class 0, never class 1 — and (b)
// no route crosses the same ring's wrap edge twice in one direction.
// These are per-route properties only: the tables' combined channel
// dependencies are still cyclic after a kill (see cdg_test.go).
func TestTorusRerouteDatelineSafety(t *testing.T) {
	for _, kills := range [][]struct {
		id  int
		dir Direction
	}{
		{{3, East}},                       // row-0 wrap edge
		{{5, East}, {9, North}},           // interior cuts force detours
		{{3, East}, {7, East}, {0, West}}, // two row wraps + column-adjacent cut
	} {
		to, err := NewTorus(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		dead := deadSet{}
		for _, k := range kills {
			dead.Kill(to, k.id, k.dir)
		}
		if got := to.Reroute(dead.Pred); got != 0 {
			t.Fatalf("kills %v disconnect the torus: %d unreachable pairs", kills, got)
		}
		for src := 0; src < to.Nodes(); src++ {
			for dst := 0; dst < to.Nodes(); dst++ {
				if src == dst {
					continue
				}
				wrapCrossings := map[Direction]int{}
				for _, hop := range walkRoute(t, to, dead, src, dst) {
					here, out := hop[0], Direction(hop[1])
					if !crossesWrap(to, here, out) {
						continue
					}
					if cls := to.WrapVCClass(here, dst, out); cls != 0 {
						t.Fatalf("kills %v: route %d->%d crosses the %v wrap at %d in VC class %d (dateline violated)",
							kills, src, dst, out, here, cls)
					}
					wrapCrossings[out]++
					if wrapCrossings[out] > 1 {
						t.Fatalf("kills %v: route %d->%d crosses the %v wrap twice (ring loop)",
							kills, src, dst, out)
					}
				}
			}
		}
	}
}

// crossesWrap reports whether the hop (here, out) traverses a torus
// wraparound edge.
func crossesWrap(to *Fabric, here int, out Direction) bool {
	c := to.Coord(here)
	switch out {
	case East:
		return c.X == to.Width-1
	case West:
		return c.X == 0
	case North:
		return c.Y == to.Height-1
	case South:
		return c.Y == 0
	}
	return false
}
