package topology_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"rlnoc/internal/fault"
	"rlnoc/internal/topology"
)

// The fabric pins: SHA-256 digests of everything a fabric exposes to the
// simulator, captured before the mesh and the torus became one type.
// Every cell, link, wrap class and wire length feeds the cycle loop, the
// power model or the snapshot stream, so a change here moves simulated
// bytes. Re-capture only when a fabric is meant to route differently.
// The healthy pin hashes the X-Y tables, the only order; a build that
// still had a Y-X order yields the same digest over its X-Y arms alone.
const (
	healthyFabricPin  = "6ae584513a10b84b71c49412b2c3fff7b02ea8457bd54af73e7b7c6774a338b4"
	reroutedFabricPin = "08e3ab43f36df4eb5d5b42a04441082be95a14aa5076502929281cc7f1c74e66"
)

// pinDims lists the healthy fabric sizes: every w,h in 2..9 plus 16x16.
func pinDims() [][2]int {
	var dims [][2]int
	for w := 2; w <= 9; w++ {
		for h := 2; h <= 9; h++ {
			dims = append(dims, [2]int{w, h})
		}
	}
	return append(dims, [2]int{16, 16})
}

// buildFabric builds a mesh, or a torus when wrap, and returns its
// Reroute beside it.
func buildFabric(t testing.TB, wrap bool, w, h int) (topology.Topology, func(dead func(int, topology.Direction) bool) int) {
	t.Helper()
	if wrap {
		f, err := topology.NewTorus(w, h)
		if err != nil {
			t.Fatal(err)
		}
		return f, f.Reroute
	}
	f, err := topology.NewMesh(w, h)
	if err != nil {
		t.Fatal(err)
	}
	return f, f.Reroute
}

// pinWriter collects fixed-width little-endian words to hash.
type pinWriter struct{ buf []byte }

func (p *pinWriter) ints(vs ...int) {
	for _, v := range vs {
		p.buf = binary.LittleEndian.AppendUint64(p.buf, uint64(int64(v)))
	}
}

func (p *pinWriter) float(v float64) {
	p.buf = binary.LittleEndian.AppendUint64(p.buf, math.Float64bits(v))
}

func (p *pinWriter) bool(v bool) {
	if v {
		p.ints(1)
	} else {
		p.ints(0)
	}
}

func (p *pinWriter) sum() string {
	s := sha256.Sum256(p.buf)
	return hex.EncodeToString(s[:])
}

// deadPorts is a directed dead-link set indexed by (router, port), killed
// the way the network kills: a link in both directions, a router with
// every incident link.
type deadPorts []bool

func (d deadPorts) dead(id int, dir topology.Direction) bool {
	return d[id*int(topology.NumPorts)+int(dir)]
}

func (d deadPorts) kill(topo topology.Topology, h fault.HardFault) {
	for dir := topology.North; dir < topology.NumPorts; dir++ {
		if h.Kind == fault.KillLink && dir != h.Dir {
			continue
		}
		if nb, ok := topo.Neighbor(h.Router, dir); ok {
			d[h.Router*int(topology.NumPorts)+int(dir)] = true
			d[nb*int(topology.NumPorts)+int(dir.Opposite())] = true
		}
	}
}

// survivingDist is a reference backward BFS: each router's hop distance
// to dst over the directed links dead leaves alive, -1 when none survives.
func survivingDist(topo topology.Topology, dead func(int, topology.Direction) bool, dst int) []int {
	dist := make([]int, topo.Nodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := []int{dst}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for d := topology.North; d < topology.NumPorts; d++ {
			u, ok := topo.Neighbor(v, d)
			if !ok || dist[u] >= 0 || dead(u, d.Opposite()) {
				continue
			}
			dist[u] = dist[v] + 1
			queue = append(queue, u)
		}
	}
	return dist
}

func TestFabricPin(t *testing.T) {
	t.Run("healthy", func(t *testing.T) {
		var p pinWriter
		for _, wrap := range []bool{false, true} {
			for _, wh := range pinDims() {
				topo, _ := buildFabric(t, wrap, wh[0], wh[1])
				n := topo.Nodes()
				w, h := topo.Dims()
				p.buf = append(p.buf, topo.Kind()...)
				p.ints(n, w, h, len(topo.Links()))
				for _, l := range topo.Links() {
					p.ints(l.Src, l.Dst, int(l.Dir))
					p.float(l.Length)
				}
				for here := 0; here < n; here++ {
					for d := topology.Local; d < topology.NumPorts; d++ {
						nb, ok := topo.Neighbor(here, d)
						p.ints(nb)
						p.bool(ok)
						p.float(topo.WireLength(here, d))
					}
					for dst := 0; dst < n; dst++ {
						p.ints(int(topo.Route(here, dst)), topo.Hops(here, dst))
						for d := topology.Local; d < topology.NumPorts; d++ {
							p.ints(topo.WrapVCClass(here, dst, d))
						}
					}
				}
			}
		}
		if got := p.sum(); got != healthyFabricPin {
			t.Errorf("healthy fabric digest %s, pinned %s", got, healthyFabricPin)
		}
	})
	t.Run("rerouted", func(t *testing.T) {
		var p pinWriter
		for _, wrap := range []bool{false, true} {
			for run := 0; run < 50; run++ {
				topo, reroute := buildFabric(t, wrap, 8, 8)
				n := topo.Nodes()
				dead := make(deadPorts, n*int(topology.NumPorts))
				for i, h := range fault.RandomSchedule(1, uint64(run), topo, 1+run%4, 10_000) {
					dead.kill(topo, h)
					p.ints(run, i, reroute(dead.dead))
					for dst := 0; dst < n; dst++ {
						p.ints(survivingDist(topo, dead.dead, dst)...)
						for here := 0; here < n; here++ {
							p.ints(int(topo.Route(here, dst)))
						}
					}
				}
			}
		}
		if got := p.sum(); got != reroutedFabricPin {
			t.Errorf("rerouted fabric digest %s, pinned %s", got, reroutedFabricPin)
		}
	})
}
