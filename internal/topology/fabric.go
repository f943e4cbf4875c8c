package topology

import "fmt"

// Fabric is a Width x Height 2D grid of routers: the paper's mesh, or a
// torus when wrap closes every row and column into a ring through
// wraparound links. Router IDs are row-major (id = y*Width + x) and the
// tiles sit on the same physical grid either way; a torus's wrap links
// are long wires spanning the row or column they close, which WireLength
// reports to the power model. Of the exported methods, only Neighbor,
// Hops, WrapVCClass, WireLength and Kind branch on wrap.
//
// Routing is table-driven: the dimension-ordered route is evaluated for
// every (here, dst) pair once at construction, and Reroute rebuilds the
// table around dead links. Deadlock freedom on a torus's rings needs the
// dateline VC classes of WrapVCClass.
type Fabric struct {
	Width, Height int
	wrap          bool
	links         []Link
	routes        []uint8
	// sharedRoutes marks routes as backed by the process-level FromConfig
	// cache: Reroute must clone before its first mutation so cached
	// tables stay pristine for later runs (copy-on-reroute).
	sharedRoutes bool
}

// Topology is the name consumers hold a fabric by: an alias of the one
// fabric type.
type Topology = *Fabric

// NewMesh returns a mesh with X-Y dimension-ordered routing. Width and
// height must be >= 1.
func NewMesh(width, height int) (*Fabric, error) { return newFabric(width, height, false) }

// NewMeshOrder is NewMesh: OrderXY is the only order.
func NewMeshOrder(width, height int, _ Order) (*Fabric, error) { return NewMesh(width, height) }

// NewTorus returns a torus with X-Y dimension-ordered routing. Width and
// height must be >= 2 so every ring is a real cycle.
func NewTorus(width, height int) (*Fabric, error) { return newFabric(width, height, true) }

// NewTorusOrder is NewTorus: OrderXY is the only order.
func NewTorusOrder(width, height int, _ Order) (*Fabric, error) { return NewTorus(width, height) }

func newFabric(width, height int, wrap bool) (*Fabric, error) {
	switch {
	case !wrap && (width < 1 || height < 1):
		return nil, fmt.Errorf("topology: invalid mesh %dx%d", width, height)
	case wrap && (width < 2 || height < 2):
		return nil, fmt.Errorf("topology: invalid torus %dx%d (need >= 2x2)", width, height)
	}
	f := &Fabric{Width: width, Height: height, wrap: wrap}
	n := f.Nodes()
	f.routes = make([]uint8, n*n)
	for here := 0; here < n; here++ {
		for dst := 0; dst < n; dst++ {
			f.routes[here*n+dst] = uint8(f.routeStep(here, dst))
		}
	}
	for id := 0; id < n; id++ {
		for d := North; d < NumPorts; d++ {
			if dst, ok := f.Neighbor(id, d); ok {
				f.links = append(f.links, Link{Src: id, Dst: dst, Dir: d, Length: f.WireLength(id, d)})
			}
		}
	}
	return f, nil
}

// offset is the signed travel from a to b along a dimension of n
// routers, positive toward East/North. On a closed ring it goes the
// shorter way round; an exact tie (n/2 on an even ring) goes the positive
// way.
func (f *Fabric) offset(a, b, n int) int {
	off := b - a
	if f.wrap {
		off = (off%n + n) % n
		if 2*off > n {
			off -= n
		}
	}
	return off
}

// routeStep is X-Y dimension-ordered routing: the port that moves a
// packet at here toward dst along X while X is unresolved, then along Y,
// or Local on arrival.
func (f *Fabric) routeStep(here, dst int) Direction {
	h, d := f.Coord(here), f.Coord(dst)
	if x := axisDir(f.offset(h.X, d.X, f.Width), East, West); x != Local {
		return x
	}
	return axisDir(f.offset(h.Y, d.Y, f.Height), North, South)
}

func axisDir(off int, pos, neg Direction) Direction {
	switch {
	case off > 0:
		return pos
	case off < 0:
		return neg
	}
	return Local
}

// Kind names the fabric: "torus" when its rings close, "mesh" otherwise.
func (f *Fabric) Kind() string {
	if f.wrap {
		return "torus"
	}
	return "mesh"
}

// Wraparound reports whether the rings close, i.e. whether deadlock
// freedom needs the dateline VC classes of WrapVCClass.
func (f *Fabric) Wraparound() bool { return f.wrap }

// Nodes returns the number of routers.
func (f *Fabric) Nodes() int { return f.Width * f.Height }

// Dims returns the physical tile-grid dimensions. Thermal adjacency and
// grid-based traffic patterns key on them, not on link structure.
func (f *Fabric) Dims() (width, height int) { return f.Width, f.Height }

// Coord converts a router ID to its coordinate. It panics if the ID is out
// of range, which always indicates a simulator bug.
func (f *Fabric) Coord(id int) Coord {
	if id < 0 || id >= f.Nodes() {
		panic(fmt.Sprintf("topology: router id %d out of range [0,%d)", id, f.Nodes()))
	}
	return Coord{X: id % f.Width, Y: id / f.Width}
}

// ID converts a coordinate to a router ID. It panics on out-of-range
// coordinates.
func (f *Fabric) ID(c Coord) int {
	if c.X < 0 || c.X >= f.Width || c.Y < 0 || c.Y >= f.Height {
		panic(fmt.Sprintf("topology: coordinate %v outside %dx%d %s", c, f.Width, f.Height, f.Kind()))
	}
	return c.Y*f.Width + c.X
}

// Neighbor returns the router adjacent to id through output port d and
// whether that port is wired. A torus wraps at the edges; a mesh edge
// port is unwired.
func (f *Fabric) Neighbor(id int, d Direction) (int, bool) {
	c := f.Coord(id)
	switch d {
	case North:
		c.Y++
	case South:
		c.Y--
	case East:
		c.X++
	case West:
		c.X--
	default:
		return 0, false
	}
	if f.wrap {
		c.X = (c.X + f.Width) % f.Width
		c.Y = (c.Y + f.Height) % f.Height
	} else if c.X < 0 || c.X >= f.Width || c.Y < 0 || c.Y >= f.Height {
		return 0, false
	}
	return f.ID(c), true
}

// Hops returns the minimal hop distance: the sum over both dimensions of
// the travel along that dimension (the shorter way round a ring).
func (f *Fabric) Hops(src, dst int) int {
	a, b := f.Coord(src), f.Coord(dst)
	return abs(f.offset(a.X, b.X, f.Width)) + abs(f.offset(a.Y, b.Y, f.Height))
}

// Links returns the directed edge list, ordered by source ID then by port
// direction. Callers must not mutate it.
func (f *Fabric) Links() []Link { return f.links }

// LinkIndex is the canonical dense link slot for (id, d); see the
// package-level LinkIndex.
func (f *Fabric) LinkIndex(id int, d Direction) int { return LinkIndex(id, d) }

// LinkSlots is the size of the dense link-index space.
func (f *Fabric) LinkSlots() int { return LinkSlots(f.Nodes()) }

// Route returns the output port a packet at router here destined for
// router dst must take: Local when here == dst, Unreachable when hard
// faults severed every path. It is a table lookup, never per-flit
// arithmetic.
func (f *Fabric) Route(here, dst int) Direction {
	return Direction(f.routes[here*f.Nodes()+dst])
}

// WrapVCClass returns the dateline VC class (0 or 1) for a packet at here
// destined for dst leaving through out; always 0 on a mesh. Within each
// ring direction a hop is class 1 while the packet's remaining travel in
// that dimension still has the wrap edge ahead of it, and class 0 once
// the wrap has been crossed (the crossing hop itself lands in class 0) or
// was never needed. Class-1 channel dependencies strictly advance along
// the ring and exit to class 0 at the dateline; class-0 dependencies run
// out before completing a loop, so each class's channel-dependency graph
// is acyclic and the ring cannot deadlock. Dimension order rules out
// cross-dimension cycles, as on the mesh. The argument covers the healthy
// dimension-ordered table only: the detours of a Reroute table can close
// dependency cycles that these classes do not break.
func (f *Fabric) WrapVCClass(here, dst int, out Direction) int {
	if !f.wrap {
		return 0
	}
	next, ok := f.Neighbor(here, out)
	if !ok {
		return 0
	}
	n, d := f.Coord(next), f.Coord(dst)
	switch out {
	case East:
		if n.X > d.X {
			return 1
		}
	case West:
		if n.X < d.X {
			return 1
		}
	case North:
		if n.Y > d.Y {
			return 1
		}
	case South:
		if n.Y < d.Y {
			return 1
		}
	}
	return 0
}

// WireLength returns the physical length, in tile pitches, of the wire
// behind output port d of router id: a torus wrap link spans the whole
// row or column it closes (in an unfolded tile layout), every other link
// one pitch. The value is only meaningful for wired ports.
func (f *Fabric) WireLength(id int, d Direction) float64 {
	if !f.wrap {
		return 1
	}
	c := f.Coord(id)
	switch {
	case d == East && c.X == f.Width-1, d == West && c.X == 0:
		return float64(f.Width - 1)
	case d == North && c.Y == f.Height-1, d == South && c.Y == 0:
		return float64(f.Height - 1)
	default:
		return 1
	}
}
