package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustTorus(t *testing.T, w, h int) *Fabric {
	t.Helper()
	to, err := NewTorus(w, h)
	if err != nil {
		t.Fatalf("NewTorus(%d,%d): %v", w, h, err)
	}
	return to
}

func TestNewTorusRejectsDegenerate(t *testing.T) {
	for _, d := range [][2]int{{1, 4}, {4, 1}, {0, 0}, {-2, 3}} {
		if _, err := NewTorus(d[0], d[1]); err == nil {
			t.Errorf("NewTorus(%d,%d) succeeded", d[0], d[1])
		}
	}
}

func TestTorusNeighborWraps(t *testing.T) {
	to := mustTorus(t, 4, 3)
	// West from column 0 wraps to column Width-1.
	if n, ok := to.Neighbor(to.ID(Coord{0, 1}), West); !ok || n != to.ID(Coord{3, 1}) {
		t.Errorf("West wrap = %d,%v", n, ok)
	}
	// East from the last column wraps to column 0.
	if n, ok := to.Neighbor(to.ID(Coord{3, 2}), East); !ok || n != to.ID(Coord{0, 2}) {
		t.Errorf("East wrap = %d,%v", n, ok)
	}
	// North from the top row wraps to row 0.
	if n, ok := to.Neighbor(to.ID(Coord{2, 2}), North); !ok || n != to.ID(Coord{2, 0}) {
		t.Errorf("North wrap = %d,%v", n, ok)
	}
	// South from row 0 wraps to the top row.
	if n, ok := to.Neighbor(to.ID(Coord{2, 0}), South); !ok || n != to.ID(Coord{2, 2}) {
		t.Errorf("South wrap = %d,%v", n, ok)
	}
	if _, ok := to.Neighbor(0, Local); ok {
		t.Error("Local direction has a neighbor")
	}
}

func TestTorusNeighborSymmetry(t *testing.T) {
	to := mustTorus(t, 5, 4)
	for id := 0; id < to.Nodes(); id++ {
		for _, d := range []Direction{North, South, East, West} {
			n, ok := to.Neighbor(id, d)
			if !ok {
				t.Fatalf("torus port %d/%v unwired", id, d)
			}
			if back, ok2 := to.Neighbor(n, d.Opposite()); !ok2 || back != id {
				t.Fatalf("neighbor symmetry broken: %d --%v--> %d", id, d, n)
			}
		}
	}
}

func TestTorusHopsRingDistance(t *testing.T) {
	to := mustTorus(t, 8, 8)
	// (0,0) -> (6,0): 2 hops going West around the ring, not 6 going East.
	if got := to.Hops(to.ID(Coord{0, 0}), to.ID(Coord{6, 0})); got != 2 {
		t.Errorf("Hops to (6,0) = %d, want 2", got)
	}
	// (0,0) -> (4,4): exact tie in both dimensions, 4+4 either way.
	if got := to.Hops(to.ID(Coord{0, 0}), to.ID(Coord{4, 4})); got != 8 {
		t.Errorf("Hops to (4,4) = %d, want 8", got)
	}
	if got := to.Hops(3, 3); got != 0 {
		t.Errorf("Hops(3,3) = %d", got)
	}
}

func TestTorusWrapTakenExactlyWhenShorter(t *testing.T) {
	to := mustTorus(t, 8, 8)
	// x=0 -> x=6 is shorter around the wrap: first hop must be West.
	if d := to.Route(to.ID(Coord{0, 3}), to.ID(Coord{6, 3})); d != West {
		t.Errorf("route (0,3)->(6,3) = %v, want west", d)
	}
	// x=0 -> x=3 is shorter inside: first hop must be East.
	if d := to.Route(to.ID(Coord{0, 3}), to.ID(Coord{3, 3})); d != East {
		t.Errorf("route (0,3)->(3,3) = %v, want east", d)
	}
	// Exact tie (distance 4 on an 8-ring) breaks toward East.
	if d := to.Route(to.ID(Coord{0, 3}), to.ID(Coord{4, 3})); d != East {
		t.Errorf("tie route (0,3)->(4,3) = %v, want east", d)
	}
	// Same in Y: y=0 -> y=6 wraps South, tie breaks North.
	if d := to.Route(to.ID(Coord{2, 0}), to.ID(Coord{2, 6})); d != South {
		t.Errorf("route (2,0)->(2,6) = %v, want south", d)
	}
	if d := to.Route(to.ID(Coord{2, 0}), to.ID(Coord{2, 4})); d != North {
		t.Errorf("tie route (2,0)->(2,4) = %v, want north", d)
	}
}

// Property: on randomized tori, every routed hop reduces the remaining
// minimal distance by exactly one — which implies wrap links are taken
// exactly when they are on a minimal path.
func TestTorusRouteMinimalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		w, h := 2+rng.Intn(7), 2+rng.Intn(7)
		to := mustTorus(t, w, h)
		for rep := 0; rep < 50; rep++ {
			src, dst := rng.Intn(to.Nodes()), rng.Intn(to.Nodes())
			path := walkPath(t, to, src, dst)
			if len(path)-1 != to.Hops(src, dst) {
				t.Fatalf("%dx%d: path %d->%d has %d hops, Hops says %d",
					w, h, src, dst, len(path)-1, to.Hops(src, dst))
			}
			for i := 1; i < len(path); i++ {
				if to.Hops(path[i], dst) != to.Hops(path[i-1], dst)-1 {
					t.Fatalf("%dx%d: unproductive hop %d->%d en route to %d",
						w, h, path[i-1], path[i], dst)
				}
			}
		}
	}
}

// Property: on randomized meshes, the X-Y table routes minimally.
func TestMeshRouteMinimalRandomDims(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		w, h := 1+rng.Intn(8), 1+rng.Intn(8)
		m := mustMesh(t, w, h)
		for rep := 0; rep < 50; rep++ {
			src, dst := rng.Intn(m.Nodes()), rng.Intn(m.Nodes())
			path := walkPath(t, m, src, dst)
			if len(path)-1 != m.Hops(src, dst) {
				t.Fatalf("%dx%d: path %d->%d has %d hops, Hops says %d",
					w, h, src, dst, len(path)-1, m.Hops(src, dst))
			}
		}
	}
}

func TestTorusHopsMetricProperty(t *testing.T) {
	to := mustTorus(t, 6, 7)
	prop := func(aRaw, bRaw, cRaw uint8) bool {
		a := int(aRaw) % to.Nodes()
		b := int(bRaw) % to.Nodes()
		c := int(cRaw) % to.Nodes()
		if to.Hops(a, b) != to.Hops(b, a) || to.Hops(a, a) != 0 {
			return false
		}
		return to.Hops(a, c) <= to.Hops(a, b)+to.Hops(b, c)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTorusLinksFullyWired(t *testing.T) {
	to := mustTorus(t, 4, 4)
	links := to.Links()
	if len(links) != to.Nodes()*4 {
		t.Fatalf("torus has %d links, want %d", len(links), to.Nodes()*4)
	}
	seen := make(map[int]bool)
	for _, l := range links {
		idx := to.LinkIndex(l.Src, l.Dir)
		if seen[idx] {
			t.Fatalf("duplicate link slot %d", idx)
		}
		seen[idx] = true
		if n, ok := to.Neighbor(l.Src, l.Dir); !ok || n != l.Dst {
			t.Fatalf("link %v disagrees with Neighbor", l)
		}
		if l.Length != to.WireLength(l.Src, l.Dir) {
			t.Fatalf("link %v length disagrees with WireLength", l)
		}
	}
}

func TestTorusWireLength(t *testing.T) {
	to := mustTorus(t, 8, 4)
	cases := []struct {
		c    Coord
		d    Direction
		want float64
	}{
		{Coord{0, 0}, West, 7},  // X wrap spans Width-1 pitches
		{Coord{7, 0}, East, 7},  // X wrap, other end
		{Coord{3, 3}, North, 3}, // Y wrap spans Height-1 pitches
		{Coord{3, 0}, South, 3}, // Y wrap, other end
		{Coord{3, 1}, East, 1},  // interior link
		{Coord{3, 1}, North, 1},
	}
	for _, tc := range cases {
		if got := to.WireLength(to.ID(tc.c), tc.d); got != tc.want {
			t.Errorf("WireLength(%v, %v) = %g, want %g", tc.c, tc.d, got, tc.want)
		}
	}
}

// The dateline rule: hops that still have the wrap edge ahead of them in
// their dimension are class 1; the wrap-crossing hop itself and everything
// after it are class 0, as are routes that never wrap.
func TestTorusWrapVCClass(t *testing.T) {
	to := mustTorus(t, 8, 8)
	// (0,0) -> (6,0) goes West via the wrap. West from x=0 lands at x=7;
	// the West rule marks class 1 only while next.X < dst.X, and 7 < 6 is
	// false, so the crossing hop itself is class 0 and the remaining
	// post-dateline hops (7 -> 6) stay class 0.
	if got := to.WrapVCClass(to.ID(Coord{0, 0}), to.ID(Coord{6, 0}), West); got != 0 {
		t.Errorf("wrap-crossing hop class = %d, want 0", got)
	}
	// (2,0) -> (7,0): 5 hops East vs 3 hops West, so it goes West through
	// the wrap. The first hop 2->1 still has the wrap ahead
	// (next.X = 1 < dst.X = 7): class 1.
	if got := to.WrapVCClass(to.ID(Coord{2, 0}), to.ID(Coord{7, 0}), West); got != 1 {
		t.Errorf("pre-dateline West hop class = %d, want 1", got)
	}
	// After the wrap (here x=7 heading to x=7? no) — from x=0 going West
	// to dst x=7: next.X = 7, 7 < 7 false: crossing hop, class 0.
	if got := to.WrapVCClass(to.ID(Coord{0, 0}), to.ID(Coord{7, 0}), West); got != 0 {
		t.Errorf("crossing hop class = %d, want 0", got)
	}
	// East pre-dateline: (6,0) -> (1,0) goes East through the wrap; first
	// hop lands at x=7 > dst.X=1: class 1.
	if got := to.WrapVCClass(to.ID(Coord{6, 0}), to.ID(Coord{1, 0}), East); got != 1 {
		t.Errorf("pre-dateline East hop class = %d, want 1", got)
	}
	// East crossing: (7,0) -> (1,0), next.X = 0 <= 1: class 0.
	if got := to.WrapVCClass(to.ID(Coord{7, 0}), to.ID(Coord{1, 0}), East); got != 0 {
		t.Errorf("East crossing hop class = %d, want 0", got)
	}
	// Interior route that never wraps: always class 0.
	if got := to.WrapVCClass(to.ID(Coord{1, 1}), to.ID(Coord{3, 1}), East); got != 0 {
		t.Errorf("interior hop class = %d, want 0", got)
	}
	// North/South mirror the rule in Y.
	if got := to.WrapVCClass(to.ID(Coord{0, 2}), to.ID(Coord{0, 7}), South); got != 1 {
		t.Errorf("pre-dateline South hop class = %d, want 1", got)
	}
	if got := to.WrapVCClass(to.ID(Coord{0, 6}), to.ID(Coord{0, 1}), North); got != 1 {
		t.Errorf("pre-dateline North hop class = %d, want 1", got)
	}
	// Mesh fabrics never leave class 0.
	m := mustMesh(t, 4, 4)
	for src := 0; src < m.Nodes(); src++ {
		for _, d := range []Direction{North, South, East, West} {
			if m.WrapVCClass(src, m.Nodes()-1, d) != 0 {
				t.Fatal("mesh reported a nonzero VC class")
			}
		}
	}
}

// Along every routed torus path, the dateline class per dimension goes
// through at most one 1->0 transition and never 0->1 — the invariant the
// deadlock argument rests on.
func TestTorusDatelineClassMonotonic(t *testing.T) {
	to := mustTorus(t, 6, 6)
	for src := 0; src < to.Nodes(); src++ {
		for dst := 0; dst < to.Nodes(); dst++ {
			path := walkPath(t, to, src, dst)
			lastClass := map[bool]int{} // key: horizontal hop?
			for i := 0; i+1 < len(path); i++ {
				out := to.Route(path[i], dst)
				cls := to.WrapVCClass(path[i], dst, out)
				horiz := out == East || out == West
				if prev, ok := lastClass[horiz]; ok && prev == 0 && cls == 1 {
					t.Fatalf("class rose 0->1 on %d->%d at hop %d", src, dst, i)
				}
				lastClass[horiz] = cls
			}
		}
	}
}

func TestFromConfigSelectsFabric(t *testing.T) {
	// Exercised through the concrete constructors to avoid importing
	// config here; fromconfig_test.go covers the config plumbing.
	m := mustMesh(t, 4, 4)
	if m.Kind() != "mesh" || m.Wraparound() {
		t.Error("mesh misidentifies itself")
	}
	to := mustTorus(t, 4, 4)
	if to.Kind() != "torus" || !to.Wraparound() {
		t.Error("torus misidentifies itself")
	}
}
