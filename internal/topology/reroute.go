package topology

// Unreachable is the route-table sentinel for a destination that no
// surviving path reaches after hard faults sever the fabric. Route
// returns it instead of looping; consumers must check for it before
// following the port. It deliberately equals NumPorts so it can never
// collide with a real port and still fits the table's uint8 cells.
const Unreachable Direction = NumPorts

// Reachable reports whether the fabric's route table has a live path
// from src to dst (trivially true when src == dst).
func Reachable(t Topology, src, dst int) bool {
	return src == dst || t.Route(src, dst) != Unreachable
}

// rerouteProbeOrder is the direction preference used to break ties among
// equally short surviving routes: X-dimension ports first, mirroring the
// XY flavor of the healthy tables.
var rerouteProbeOrder = [linkPorts]Direction{East, West, North, South}

// SurvivingDistances is the backward BFS over surviving links: it fills
// row[v] with router v's hop distance to dst over the directed edges dead
// leaves alive (dead reports whether the edge leaving router id through
// port d is down), -1 where no path survives. row holds Nodes() entries.
// queue is scratch space of any length; the grown buffer is returned for
// the next call. It reads only adjacency, never the route table.
func (f *Fabric) SurvivingDistances(dst int, dead func(id int, d Direction) bool, row, queue []int32) []int32 {
	for i := range row {
		row[i] = -1
	}
	row[dst] = 0
	queue = append(queue[:0], int32(dst))
	for qi := 0; qi < len(queue); qi++ {
		v := int(queue[qi])
		for d := North; d < NumPorts; d++ {
			// u sits in direction d from v, so u reaches v through the
			// opposite port; that directed edge must be alive.
			u, ok := f.Neighbor(v, d)
			if !ok || row[u] >= 0 || dead(u, d.Opposite()) {
				continue
			}
			row[u] = row[v] + 1
			queue = append(queue, int32(u))
		}
	}
	return queue
}

// Reroute rebuilds the route table around dead links and returns the
// number of ordered (src, dst) pairs, src != dst, left with no surviving
// path; their cells hold Unreachable. For each destination it takes the
// surviving distances, then points every source at a neighbor one step
// closer — preferring the port the previous table used when that port is
// still optimal, so traffic unaffected by the fault keeps its
// dimension-ordered route, and falling back to a fixed probe order
// otherwise. dead treats each direction of a link independently (callers
// kill links in both). Everything is index-ordered and dead is pure, so
// rebuilt tables are identical across runs and worker counts. A table
// shared with the FromConfig cache is cloned first (copy-on-reroute).
// It runs only when a hard fault lands, never per flit.
func (f *Fabric) Reroute(dead func(id int, d Direction) bool) int {
	if f.sharedRoutes {
		f.routes = append([]uint8(nil), f.routes...)
		f.sharedRoutes = false
	}
	n := f.Nodes()
	dist := make([]int32, n)
	var queue []int32
	unreachable := 0
	for dst := 0; dst < n; dst++ {
		queue = f.SurvivingDistances(dst, dead, dist, queue)
		for here := 0; here < n; here++ {
			cell := &f.routes[here*n+dst]
			switch {
			case here == dst:
				*cell = uint8(Local)
			case dist[here] < 0:
				*cell = uint8(Unreachable)
				unreachable++
			default:
				prev := Direction(*cell)
				best := Unreachable
				for _, d := range rerouteProbeOrder {
					next, ok := f.Neighbor(here, d)
					if !ok || dead(here, d) || dist[next] != dist[here]-1 {
						continue
					}
					if d == prev {
						best = d
						break
					}
					if best == Unreachable {
						best = d
					}
				}
				*cell = uint8(best)
			}
		}
	}
	return unreachable
}
