package topology

import (
	"testing"
	"testing/quick"
)

// walkPath returns the routers a packet visits from src to dst (both
// included) by walking the fabric's route table; walkRoute fails the test
// on a dead, unreachable, unwired or looping step.
func walkPath(t *testing.T, topo Topology, src, dst int) []int {
	t.Helper()
	path := []int{src}
	for _, hop := range walkRoute(t, topo, nil, src, dst) {
		next, _ := topo.Neighbor(hop[0], Direction(hop[1]))
		path = append(path, next)
	}
	return path
}

func mustMesh(t *testing.T, w, h int) *Fabric {
	t.Helper()
	m, err := NewMesh(w, h)
	if err != nil {
		t.Fatalf("NewMesh(%d,%d): %v", w, h, err)
	}
	return m
}

func TestNewMeshRejectsDegenerate(t *testing.T) {
	if _, err := NewMesh(0, 4); err == nil {
		t.Error("NewMesh(0,4) succeeded")
	}
	if _, err := NewMesh(4, -1); err == nil {
		t.Error("NewMesh(4,-1) succeeded")
	}
}

func TestCoordIDRoundTrip(t *testing.T) {
	m := mustMesh(t, 8, 8)
	for id := 0; id < m.Nodes(); id++ {
		if got := m.ID(m.Coord(id)); got != id {
			t.Fatalf("ID(Coord(%d)) = %d", id, got)
		}
	}
}

func TestCoordRowMajor(t *testing.T) {
	m := mustMesh(t, 4, 3)
	if c := m.Coord(0); c != (Coord{0, 0}) {
		t.Errorf("Coord(0) = %v", c)
	}
	if c := m.Coord(5); c != (Coord{1, 1}) {
		t.Errorf("Coord(5) = %v", c)
	}
	if c := m.Coord(11); c != (Coord{3, 2}) {
		t.Errorf("Coord(11) = %v", c)
	}
}

func TestCoordPanicsOutOfRange(t *testing.T) {
	m := mustMesh(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Coord(4) did not panic")
		}
	}()
	m.Coord(4)
}

func TestNeighborEdges(t *testing.T) {
	m := mustMesh(t, 3, 3)
	// Corner (0,0) = id 0: no South, no West.
	if _, ok := m.Neighbor(0, South); ok {
		t.Error("corner has a South neighbor")
	}
	if _, ok := m.Neighbor(0, West); ok {
		t.Error("corner has a West neighbor")
	}
	if n, ok := m.Neighbor(0, East); !ok || n != 1 {
		t.Errorf("East of 0 = %d,%v, want 1,true", n, ok)
	}
	if n, ok := m.Neighbor(0, North); !ok || n != 3 {
		t.Errorf("North of 0 = %d,%v, want 3,true", n, ok)
	}
	// Local direction has no neighbor.
	if _, ok := m.Neighbor(4, Local); ok {
		t.Error("Local direction has a neighbor")
	}
}

func TestNeighborSymmetry(t *testing.T) {
	m := mustMesh(t, 5, 4)
	for id := 0; id < m.Nodes(); id++ {
		for _, d := range []Direction{North, South, East, West} {
			n, ok := m.Neighbor(id, d)
			if !ok {
				continue
			}
			back, ok2 := m.Neighbor(n, d.Opposite())
			if !ok2 || back != id {
				t.Fatalf("neighbor symmetry broken: %d --%v--> %d --%v--> %d", id, d, n, d.Opposite(), back)
			}
		}
	}
}

func TestOpposite(t *testing.T) {
	pairs := map[Direction]Direction{
		North: South, South: North, East: West, West: East, Local: Local,
	}
	for d, want := range pairs {
		if got := d.Opposite(); got != want {
			t.Errorf("%v.Opposite() = %v, want %v", d, got, want)
		}
	}
}

func TestDirectionString(t *testing.T) {
	if North.String() != "north" || Local.String() != "local" {
		t.Errorf("unexpected names: %v %v", North, Local)
	}
	if Direction(9).String() == "" {
		t.Error("out-of-range direction produced empty string")
	}
}

func TestRouteXYOrder(t *testing.T) {
	m := mustMesh(t, 8, 8)
	// From (0,0) to (3,3): XY goes East until X matches, then North.
	src, dst := m.ID(Coord{0, 0}), m.ID(Coord{3, 3})
	path := walkPath(t, m, src, dst)
	want := []int{0, 1, 2, 3, 11, 19, 27}
	if len(path) != len(want) {
		t.Fatalf("path length %d, want %d (%v)", len(path), len(want), path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path[%d] = %d, want %d (%v)", i, path[i], want[i], path)
		}
	}
}

func TestRouteSelfIsLocal(t *testing.T) {
	m := mustMesh(t, 4, 4)
	for id := 0; id < m.Nodes(); id++ {
		if d := m.Route(id, id); d != Local {
			t.Fatalf("Route(%d,%d) = %v, want local", id, id, d)
		}
	}
}

// Property: the X-Y table always reaches the destination in exactly the
// Manhattan distance number of hops.
func TestRouteMinimalProperty(t *testing.T) {
	m := mustMesh(t, 8, 8)
	prop := func(srcRaw, dstRaw uint8) bool {
		src := int(srcRaw) % m.Nodes()
		dst := int(dstRaw) % m.Nodes()
		path := walkPath(t, m, src, dst)
		return len(path)-1 == m.Hops(src, dst) && path[len(path)-1] == dst
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: hop count is symmetric and satisfies the triangle inequality.
func TestHopsMetricProperty(t *testing.T) {
	m := mustMesh(t, 6, 7)
	prop := func(aRaw, bRaw, cRaw uint8) bool {
		a := int(aRaw) % m.Nodes()
		b := int(bRaw) % m.Nodes()
		c := int(cRaw) % m.Nodes()
		if m.Hops(a, b) != m.Hops(b, a) {
			return false
		}
		if m.Hops(a, a) != 0 {
			return false
		}
		return m.Hops(a, c) <= m.Hops(a, b)+m.Hops(b, c)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// XY routing is deadlock-free because no packet ever turns from Y back to
// X; verify that property over all pairs on a mesh.
func TestXYNeverTurnsYToX(t *testing.T) {
	m := mustMesh(t, 8, 8)
	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			path := walkPath(t, m, src, dst)
			movedY := false
			for i := 1; i < len(path); i++ {
				a, b := m.Coord(path[i-1]), m.Coord(path[i])
				if a.Y != b.Y {
					movedY = true
				}
				if a.X != b.X && movedY {
					t.Fatalf("XY route %d->%d turned Y->X at step %d: %v", src, dst, i, path)
				}
			}
		}
	}
}
