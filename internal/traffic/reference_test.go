package traffic

// The generation loops as they stood before the kernels in traffic.go
// replaced them: one detrand.New per (cycle, source) pair, the stream
// passed through the detrand.Source interface, topology queried per
// draw. Kept verbatim as the referee for TestGeneratorsMatchReference —
// the kernels must produce these exact event slices.

import (
	"fmt"

	"rlnoc/internal/detrand"
	"rlnoc/internal/topology"
)

func refDestination(m topology.Topology, p Pattern, src int, rng detrand.Source) (int, bool) {
	n := m.Nodes()
	w, h := m.Dims()
	switch p {
	case Uniform:
		if n == 1 {
			return 0, false
		}
		d := rng.Intn(n - 1)
		if d >= src {
			d++
		}
		return d, true
	case Transpose:
		c := m.Coord(src)
		if c.X >= h || c.Y >= w {
			return refDestination(m, Uniform, src, rng)
		}
		d := m.ID(topology.Coord{X: c.Y, Y: c.X})
		return d, d != src
	case BitComplement:
		if n&(n-1) != 0 {
			return refDestination(m, Uniform, src, rng)
		}
		d := (^src) & (n - 1)
		return d, d != src
	case BitReverse:
		if n&(n-1) != 0 {
			return refDestination(m, Uniform, src, rng)
		}
		bits := 0
		for 1<<uint(bits) < n {
			bits++
		}
		d := 0
		for b := 0; b < bits; b++ {
			if src&(1<<uint(b)) != 0 {
				d |= 1 << uint(bits-1-b)
			}
		}
		return d, d != src
	case Shuffle:
		if n&(n-1) != 0 {
			return refDestination(m, Uniform, src, rng)
		}
		d := ((src << 1) | (src >> uint(log2(n)-1))) & (n - 1)
		return d, d != src
	case Hotspot:
		hot := []int{m.ID(topology.Coord{X: w / 2, Y: h / 2})}
		if w > 2 && h > 2 {
			hot = append(hot, m.ID(topology.Coord{X: w/2 - 1, Y: h / 2}))
		}
		if rng.Float64() < hotspotFraction {
			d := hot[rng.Intn(len(hot))]
			if d != src {
				return d, true
			}
		}
		return refDestination(m, Uniform, src, rng)
	case Neighbor:
		c := m.Coord(src)
		d := m.ID(topology.Coord{X: (c.X + 1) % w, Y: c.Y})
		return d, d != src
	case Tornado:
		c := m.Coord(src)
		shift := (w+1)/2 - 1
		if shift < 1 {
			shift = 1
		}
		d := m.ID(topology.Coord{X: (c.X + shift) % w, Y: c.Y})
		return d, d != src
	default:
		return 0, false
	}
}

func refSynthetic(m topology.Topology, p Pattern, rate float64, flits int, cycles int64, seed int64) ([]Event, error) {
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("traffic: rate %g outside [0,1]", rate)
	}
	if flits < 1 {
		return nil, fmt.Errorf("traffic: flits %d < 1", flits)
	}
	if cycles < 0 {
		return nil, fmt.Errorf("traffic: negative duration %d", cycles)
	}
	var events []Event
	for cycle := int64(0); cycle < cycles; cycle++ {
		for src := 0; src < m.Nodes(); src++ {
			rng := detrand.New(seed, detrand.DomainTraffic, uint64(src), uint64(cycle))
			if rng.Float64() >= rate {
				continue
			}
			dst, ok := refDestination(m, p, src, &rng)
			if !ok {
				continue
			}
			events = append(events, Event{Cycle: cycle, Src: src, Dst: dst, Flits: flits})
		}
	}
	return events, nil
}

func (b Benchmark) refTrace(m topology.Topology, cycles int64, dataFlits int, seed int64) ([]Event, error) {
	if dataFlits < 1 {
		return nil, fmt.Errorf("traffic: dataFlits %d < 1", dataFlits)
	}
	if cycles < 0 {
		return nil, fmt.Errorf("traffic: negative duration %d", cycles)
	}
	n := m.Nodes()
	bursting := make([]bool, n)
	duty := b.BurstOnProb / (b.BurstOnProb + b.BurstOffProb)
	for i := range bursting {
		init := detrand.New(seed, detrand.DomainTrafficInit, uint64(i), 0)
		bursting[i] = init.Float64() < duty
	}
	hot := refHotNodes(m)
	rate := b.RatePktPerKCycle / 1000
	var events []Event
	for cycle := int64(0); cycle < cycles; cycle++ {
		for src := 0; src < n; src++ {
			rng := detrand.New(seed, detrand.DomainTraffic, uint64(src), uint64(cycle))
			if bursting[src] {
				if rng.Float64() < b.BurstOffProb {
					bursting[src] = false
				}
			} else {
				if rng.Float64() < b.BurstOnProb {
					bursting[src] = true
				}
				continue
			}
			if rng.Float64() >= rate {
				continue
			}
			dst := b.refPickDst(m, src, hot, &rng)
			if dst == src {
				continue
			}
			flits := dataFlits
			if rng.Float64() < b.ShortFrac {
				flits = 1
			}
			events = append(events, Event{Cycle: cycle, Src: src, Dst: dst, Flits: flits})
		}
	}
	return events, nil
}

func refHotNodes(m topology.Topology) []int {
	w, h := m.Dims()
	return []int{
		m.ID(topology.Coord{X: 0, Y: 0}),
		m.ID(topology.Coord{X: w - 1, Y: 0}),
		m.ID(topology.Coord{X: 0, Y: h - 1}),
		m.ID(topology.Coord{X: w - 1, Y: h - 1}),
	}
}

func (b Benchmark) refPickDst(m topology.Topology, src int, hot []int, rng detrand.Source) int {
	r := rng.Float64()
	switch {
	case r < b.HotspotProb:
		return hot[rng.Intn(len(hot))]
	case r < b.HotspotProb+b.Locality:
		c := m.Coord(src)
		w, h := m.Dims()
		for attempt := 0; attempt < 8; attempt++ {
			dx := rng.Intn(5) - 2
			dy := rng.Intn(5) - 2
			if dx == 0 && dy == 0 {
				continue
			}
			nc := topology.Coord{X: c.X + dx, Y: c.Y + dy}
			if nc.X < 0 || nc.X >= w || nc.Y < 0 || nc.Y >= h {
				continue
			}
			return m.ID(nc)
		}
		fallthrough
	default:
		d := rng.Intn(m.Nodes())
		return d
	}
}

// refProgram is core.Sim.Pretrain's concatenation loop as it stood when
// it lived in core: equal spans, per-segment seeds, one append per event.
func refProgram(m topology.Topology, segs []Segment, flits int, cycles int64, seed int64) ([]Event, error) {
	per := cycles / int64(len(segs))
	if per < 1 {
		per = cycles
	}
	var events []Event
	var offset int64
	for i, seg := range segs {
		if offset >= cycles {
			break
		}
		span := per
		if offset+span > cycles {
			span = cycles - offset
		}
		segEvents, err := refSynthetic(m, seg.Pattern, seg.Rate, flits, span, seed+int64(i))
		if err != nil {
			return nil, err
		}
		for _, e := range segEvents {
			e.Cycle += offset
			events = append(events, e)
		}
		offset += span
	}
	return events, nil
}
