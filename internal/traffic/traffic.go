// Package traffic produces the workloads driving the simulator: classic
// synthetic patterns (uniform random, transpose, bit-complement, ...) used
// for pre-training, and PARSEC-like application traces.
//
// The paper evaluates on real PARSEC traces captured from a 64-core
// full-system run; those traces are proprietary to the authors' toolchain.
// As documented in DESIGN.md, this package substitutes a calibrated
// synthetic model per benchmark — per-node ON/OFF burst processes with
// benchmark-specific injection intensity, spatial locality and hotspot
// behavior — which preserves what the evaluation consumes: streams of
// (cycle, src, dst, size) injections whose relative intensity
// differentiates the benchmarks.
package traffic

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"rlnoc/internal/detrand"
	"rlnoc/internal/topology"
)

// Event is one packet-injection request presented to a network interface.
type Event struct {
	Cycle int64
	Src   int
	Dst   int
	Flits int
}

// Pattern names a synthetic destination pattern.
type Pattern string

// Supported synthetic patterns.
const (
	Uniform       Pattern = "uniform"
	Transpose     Pattern = "transpose"
	BitComplement Pattern = "bitcomplement"
	BitReverse    Pattern = "bitreverse"
	Shuffle       Pattern = "shuffle"
	Hotspot       Pattern = "hotspot"
	Neighbor      Pattern = "neighbor"
	Tornado       Pattern = "tornado"
)

// Patterns lists every supported synthetic pattern.
func Patterns() []Pattern {
	return []Pattern{Uniform, Transpose, BitComplement, BitReverse, Shuffle, Hotspot, Neighbor, Tornado}
}

// hotspotFraction is the share of Hotspot-pattern traffic aimed at the
// designated hot nodes.
const hotspotFraction = 0.3

// Sentinels of destPlan.fixed, beside real destinations (>= 0).
const (
	dstSkip    = -1 // the pattern maps the source to itself: it never injects
	dstUniform = -2 // the source draws a uniform destination per packet
)

// destPlan is a pattern resolved against a fabric once, so the generation
// loop never queries the topology: each source's destination is fixed (the
// permutation patterns), absent, or drawn — uniformly, after Hotspot's
// biased first draw when hot is set.
type destPlan struct {
	n     int
	fixed []int
	hot   []int
}

func newDestPlan(m topology.Topology, p Pattern) destPlan {
	n := m.Nodes()
	w, h := m.Dims()
	pl := destPlan{n: n, fixed: make([]int, n)}
	pow2 := n&(n-1) == 0
	for src := range pl.fixed {
		d := dstUniform
		switch p {
		case Uniform, Hotspot:
		case Transpose:
			// Non-square fabrics: uniform for unmappable nodes.
			if c := m.Coord(src); c.X < h && c.Y < w {
				d = m.ID(topology.Coord{X: c.Y, Y: c.X})
			}
		case BitComplement:
			if pow2 {
				d = (^src) & (n - 1)
			}
		case BitReverse:
			if pow2 {
				bits := log2(n)
				d = 0
				for b := 0; b < bits; b++ {
					if src&(1<<uint(b)) != 0 {
						d |= 1 << uint(bits-1-b)
					}
				}
			}
		case Shuffle:
			if pow2 {
				d = ((src << 1) | (src >> uint(log2(n)-1))) & (n - 1)
			}
		case Neighbor:
			c := m.Coord(src)
			d = m.ID(topology.Coord{X: (c.X + 1) % w, Y: c.Y})
		case Tornado:
			c := m.Coord(src)
			shift := (w+1)/2 - 1
			if shift < 1 {
				shift = 1
			}
			d = m.ID(topology.Coord{X: (c.X + shift) % w, Y: c.Y})
		}
		if d == src || n == 1 {
			d = dstSkip
		}
		pl.fixed[src] = d
	}
	if p == Hotspot && n > 1 {
		// A handful of hot nodes near the center receive extra traffic.
		pl.hot = append(pl.hot, m.ID(topology.Coord{X: w / 2, Y: h / 2}))
		if w > 2 && h > 2 {
			pl.hot = append(pl.hot, m.ID(topology.Coord{X: w/2 - 1, Y: h / 2}))
		}
	}
	return pl
}

// pick returns src's destination for one packet, consuming rng for the
// stochastic patterns; ok=false means src does not inject.
func (pl *destPlan) pick(src int, rng *detrand.Stream) (int, bool) {
	d := pl.fixed[src]
	if d >= 0 {
		return d, true
	}
	if d == dstSkip {
		return 0, false
	}
	if len(pl.hot) > 0 && rng.Float64() < hotspotFraction {
		if d := pl.hot[rng.Intn(len(pl.hot))]; d != src {
			return d, true
		}
	}
	d = rng.Intn(pl.n - 1)
	if d >= src {
		d++
	}
	return d, true
}

func log2(n int) int {
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	return b
}

// sourcePrefixes hoists the (seed, domain, source) part of every
// (cycle, source) stream key out of the generation loops.
func sourcePrefixes(n int, seed int64) []detrand.KeyPrefix {
	pre := make([]detrand.KeyPrefix, n)
	for src := range pre {
		pre[src] = detrand.Prefix(seed, detrand.DomainTraffic, uint64(src))
	}
	return pre
}

// maxPresize caps the capacity reserved from an expected event count, so
// a long, nearly silent trace never reserves memory it will not fill.
const maxPresize = 1 << 22

// sizeHint turns an expected event count into a capacity with four
// standard deviations of headroom: append regrows only on outliers.
func sizeHint(expected float64) int {
	c := expected + 4*math.Sqrt(expected) + 16
	if c > maxPresize {
		return maxPresize
	}
	return int(c)
}

// CheckSynthetic validates one pattern segment's parameters, as Synthetic
// and SharedProgram do before generating. An unknown pattern is an error:
// no source would have a destination plan, so the trace would be silently
// empty.
func CheckSynthetic(p Pattern, rate float64, flits int, cycles int64) error {
	if !slices.Contains(Patterns(), p) {
		names := make([]string, 0, len(Patterns()))
		for _, q := range Patterns() {
			names = append(names, string(q))
		}
		return fmt.Errorf("traffic: unknown pattern %q (want %s)", p, strings.Join(names, ", "))
	}
	if rate < 0 || rate > 1 {
		return fmt.Errorf("traffic: rate %g outside [0,1]", rate)
	}
	if flits < 1 {
		return fmt.Errorf("traffic: flits %d < 1", flits)
	}
	if cycles < 0 {
		return fmt.Errorf("traffic: negative duration %d", cycles)
	}
	return nil
}

// Synthetic generates a cycle-sorted trace for a synthetic pattern.
// rate is packets per node per cycle; flits is the packet size. The
// caller owns the returned slice.
func Synthetic(m topology.Topology, p Pattern, rate float64, flits int, cycles int64, seed int64) ([]Event, error) {
	if err := CheckSynthetic(p, rate, flits, cycles); err != nil {
		return nil, err
	}
	events := make([]Event, 0, sizeHint(rate*float64(m.Nodes())*float64(cycles)))
	return appendSynthetic(events, m, p, rate, flits, 0, cycles, seed), nil
}

// appendSynthetic appends span cycles of pattern traffic to events, with
// event cycles shifted by offset.
//
// Each (cycle, src) pair draws from its own counter-based stream, so a
// node's injection decision is a pure function of (seed, node, cycle) —
// independent of every other node's draws, and stable under any future
// reordering or parallelization of trace generation. The stream is a
// stack value handed to pick by concrete pointer: nothing in the loop
// allocates but append.
func appendSynthetic(events []Event, m topology.Topology, p Pattern, rate float64, flits int, offset, span int64, seed int64) []Event {
	pl := newDestPlan(m, p)
	pre := sourcePrefixes(pl.n, seed)
	for cycle := int64(0); cycle < span; cycle++ {
		for src, prefix := range pre {
			rng := prefix.At(uint64(cycle))
			if rng.Float64() >= rate {
				continue
			}
			dst, ok := pl.pick(src, &rng)
			if !ok {
				continue
			}
			events = append(events, Event{Cycle: offset + cycle, Src: src, Dst: dst, Flits: flits})
		}
	}
	return events
}

// Segment is one phase of a synthetic traffic program.
type Segment struct {
	Pattern Pattern
	Rate    float64
}

// program concatenates the segments into one trace of the given length:
// each segment spans cycles/len(segs) cycles (the division's remainder
// stays silent; a program shorter than its segment count is all first
// segment) and draws from seed+i.
func program(m topology.Topology, segs []Segment, flits int, cycles int64, seed int64) []Event {
	per := cycles / int64(len(segs))
	if per < 1 {
		per = cycles
	}
	var expected float64
	for _, seg := range segs {
		expected += seg.Rate * float64(m.Nodes()) * float64(per)
	}
	events := make([]Event, 0, sizeHint(expected))
	var offset int64
	for i, seg := range segs {
		if offset >= cycles {
			break
		}
		span := per
		if offset+span > cycles {
			span = cycles - offset
		}
		events = appendSynthetic(events, m, seg.Pattern, seg.Rate, flits, offset, span, seed+int64(i))
		offset += span
	}
	return events
}

// Benchmark describes one PARSEC-like workload's traffic character.
type Benchmark struct {
	Name string
	// RatePktPerKCycle is the per-node injection rate while bursting,
	// in packets per 1000 cycles.
	RatePktPerKCycle float64
	// BurstOnProb / BurstOffProb are the per-cycle probabilities of
	// entering/leaving a burst (ON/OFF Markov process); their ratio sets
	// the duty cycle.
	BurstOnProb  float64
	BurstOffProb float64
	// Locality is the probability a packet targets a node within
	// Manhattan radius 2 of the source (data sharing between neighbors).
	Locality float64
	// HotspotProb is the probability a packet targets the memory
	// controller tiles (mesh corners).
	HotspotProb float64
	// ShortFrac is the fraction of single-flit (request/coherence)
	// packets; the rest are full data packets.
	ShortFrac float64
}

// Benchmarks returns the nine PARSEC-like workloads, ordered as the
// paper's figures list them. Intensities are calibrated so the busiest
// benchmark stays under ~0.3 flits/cycle/link on the 8x8 mesh, the
// paper's observed maximum link utilization.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{Name: "blackscholes", RatePktPerKCycle: 3.0, BurstOnProb: 0.004, BurstOffProb: 0.012, Locality: 0.3, HotspotProb: 0.10, ShortFrac: 0.5},
		{Name: "bodytrack", RatePktPerKCycle: 6.5, BurstOnProb: 0.006, BurstOffProb: 0.010, Locality: 0.4, HotspotProb: 0.12, ShortFrac: 0.4},
		{Name: "canneal", RatePktPerKCycle: 11.0, BurstOnProb: 0.010, BurstOffProb: 0.006, Locality: 0.1, HotspotProb: 0.20, ShortFrac: 0.3},
		{Name: "dedup", RatePktPerKCycle: 8.5, BurstOnProb: 0.012, BurstOffProb: 0.010, Locality: 0.3, HotspotProb: 0.15, ShortFrac: 0.4},
		{Name: "ferret", RatePktPerKCycle: 7.0, BurstOnProb: 0.008, BurstOffProb: 0.010, Locality: 0.35, HotspotProb: 0.12, ShortFrac: 0.4},
		{Name: "fluidanimate", RatePktPerKCycle: 5.5, BurstOnProb: 0.005, BurstOffProb: 0.010, Locality: 0.6, HotspotProb: 0.08, ShortFrac: 0.45},
		{Name: "streamcluster", RatePktPerKCycle: 10.0, BurstOnProb: 0.015, BurstOffProb: 0.008, Locality: 0.2, HotspotProb: 0.18, ShortFrac: 0.3},
		{Name: "swaptions", RatePktPerKCycle: 3.8, BurstOnProb: 0.004, BurstOffProb: 0.010, Locality: 0.4, HotspotProb: 0.08, ShortFrac: 0.5},
		{Name: "x264", RatePktPerKCycle: 9.0, BurstOnProb: 0.010, BurstOffProb: 0.007, Locality: 0.35, HotspotProb: 0.14, ShortFrac: 0.35},
	}
}

// BenchmarkByName finds a benchmark by name.
func BenchmarkByName(name string) (Benchmark, error) {
	for _, b := range Benchmarks() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("traffic: unknown benchmark %q", name)
}

// Trace synthesizes the benchmark's injection trace over the fabric.
// dataFlits is the full data-packet size (Table II: 4 flits). The caller
// owns the returned slice.
func (b Benchmark) Trace(m topology.Topology, cycles int64, dataFlits int, seed int64) ([]Event, error) {
	if err := CheckTrace(cycles, dataFlits); err != nil {
		return nil, err
	}
	return b.trace(m, cycles, dataFlits, seed), nil
}

// CheckTrace validates a benchmark trace's parameters, as Trace and
// SharedTrace do before generating.
func CheckTrace(cycles int64, dataFlits int) error {
	if dataFlits < 1 {
		return fmt.Errorf("traffic: dataFlits %d < 1", dataFlits)
	}
	if cycles < 0 {
		return fmt.Errorf("traffic: negative duration %d", cycles)
	}
	return nil
}

// trace is Trace's kernel. As in appendSynthetic, one keyed stream per
// (cycle, src) lives on the stack and the fabric is resolved into tables
// (traceFabric) before the loop.
func (b Benchmark) trace(m topology.Topology, cycles int64, dataFlits int, seed int64) []Event {
	f := newTraceFabric(m)
	bursting := make([]bool, f.n)
	// Start some nodes mid-burst so traces don't begin silent. The
	// initial states draw from a dedicated init domain keyed per node.
	duty := b.BurstOnProb / (b.BurstOnProb + b.BurstOffProb)
	for i := range bursting {
		init := detrand.New(seed, detrand.DomainTrafficInit, uint64(i), 0)
		bursting[i] = init.Float64() < duty
	}
	rate := b.RatePktPerKCycle / 1000
	pre := sourcePrefixes(f.n, seed)
	// The ON/OFF process is correlated, so leave a little more headroom
	// than sizeHint's Poisson allowance.
	events := make([]Event, 0, sizeHint(1.05*duty*rate*float64(f.n)*float64(cycles)))
	for cycle := int64(0); cycle < cycles; cycle++ {
		for src, prefix := range pre {
			rng := prefix.At(uint64(cycle))
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
			dst := b.pickDst(&f, src, &rng)
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
	return events
}

// traceFabric is what pickDst needs of a fabric, resolved once: node
// coordinates, the coordinate-to-ID grid and the grid-corner tiles that
// stand in for memory controllers.
type traceFabric struct {
	n, w, h int
	coords  []topology.Coord
	ids     []int // ids[y*w+x] is the node at (x, y)
	hot     [4]int
}

func newTraceFabric(m topology.Topology) traceFabric {
	w, h := m.Dims()
	f := traceFabric{n: m.Nodes(), w: w, h: h, coords: make([]topology.Coord, m.Nodes()), ids: make([]int, w*h)}
	for id := range f.coords {
		f.coords[id] = m.Coord(id)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.ids[y*w+x] = m.ID(topology.Coord{X: x, Y: y})
		}
	}
	f.hot = [4]int{f.ids[0], f.ids[w-1], f.ids[(h-1)*w], f.ids[(h-1)*w+w-1]}
	return f
}

func (b Benchmark) pickDst(f *traceFabric, src int, rng *detrand.Stream) int {
	r := rng.Float64()
	switch {
	case r < b.HotspotProb:
		return f.hot[rng.Intn(len(f.hot))]
	case r < b.HotspotProb+b.Locality:
		// A node within Manhattan radius 2.
		c := f.coords[src]
		for attempt := 0; attempt < 8; attempt++ {
			dx := rng.Intn(5) - 2
			dy := rng.Intn(5) - 2
			if dx == 0 && dy == 0 {
				continue
			}
			x, y := c.X+dx, c.Y+dy
			if x < 0 || x >= f.w || y < 0 || y >= f.h {
				continue
			}
			return f.ids[y*f.w+x]
		}
		fallthrough
	default:
		return rng.Intn(f.n)
	}
}

// Validate checks a trace against a fabric: non-negative, non-decreasing
// cycles, and every event passing CheckEvent.
func Validate(m topology.Topology, events []Event) error {
	var prev int64
	nodes := m.Nodes()
	for i, e := range events {
		if e.Cycle < prev {
			return fmt.Errorf("traffic: event %d cycle %d before %d", i, e.Cycle, prev)
		}
		prev = e.Cycle
		if err := CheckEvent(nodes, e.Src, e.Dst, e.Flits); err != nil {
			return fmt.Errorf("traffic: event %d %w", i, err)
		}
	}
	return nil
}

// CheckEvent holds one event to a fabric of nodes: both endpoints on it,
// not a self-send, at least one flit. It is the per-event rule of every
// trace the simulator replays, a caller's or a checkpoint's; the error
// completes a sentence that names the event.
func CheckEvent(nodes, src, dst, flits int) error {
	switch {
	case src < 0 || src >= nodes || dst < 0 || dst >= nodes:
		return fmt.Errorf("endpoints (%d,%d) outside fabric", src, dst)
	case src == dst:
		return fmt.Errorf("is a self-send at node %d", src)
	case flits < 1:
		return fmt.Errorf("has %d flits", flits)
	}
	return nil
}

// OfferedLoad returns the trace's average offered load in flits per node
// per cycle.
func OfferedLoad(m topology.Topology, events []Event, cycles int64) float64 {
	if cycles <= 0 || m.Nodes() == 0 {
		return 0
	}
	var flits int64
	for _, e := range events {
		flits += int64(e.Flits)
	}
	return float64(flits) / float64(cycles) / float64(m.Nodes())
}

// WriteTrace serializes events as "cycle src dst flits" lines.
func WriteTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# rlnoc trace v1: cycle src dst flits"); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d\n", e.Cycle, e.Src, e.Dst, e.Flits); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a trace written by WriteTrace. Events are re-sorted by
// cycle (stable) to tolerate hand-edited files.
func ReadTrace(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		var e Event
		if _, err := fmt.Sscanf(text, "%d %d %d %d", &e.Cycle, &e.Src, &e.Dst, &e.Flits); err != nil {
			return nil, fmt.Errorf("traffic: line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })
	return events, nil
}
