package traffic

import (
	"errors"
	"fmt"
	"sync"
	"unsafe"

	"rlnoc/internal/topology"
)

// Shared traces (DESIGN.md §19). A trace is a pure function of its
// generator inputs, and the simulator only ever reads one: the injector
// copies events into its per-source queues and the snapshot codec reads
// them out, nothing writes through the slice. So the sims of a suite, the
// schemes of a load sweep and the arms of a chaos run — which all replay
// the same few traces — can share one slice per input tuple instead of
// re-synthesizing it each. SharedProgram and Benchmark.SharedTrace are
// the memoized counterparts of Synthetic and Benchmark.Trace for
// exactly those internal consumers; the slices they return are READ-ONLY
// and have cap == len, so an append by a careless caller copies instead
// of scribbling on its neighbours' trace.

// sharedCapBytes bounds what the memo retains. A full-scale suite (nine
// 200k-cycle traces and the 600k-cycle pre-training program on 8x8) is
// about 25 MB; the cap leaves room for a second fabric beside it. A
// trace larger than the cap is synthesized for its callers and not kept.
const sharedCapBytes = 64 << 20

const eventBytes = int64(unsafe.Sizeof(Event{}))

var shared = newMemo(sharedCapBytes)

// memo is a byte-capped, single-flight, least-recently-used cache of
// event slices keyed by the generator's full input tuple.
type memo struct {
	capBytes int64

	mu      sync.Mutex
	entries map[string]*memoEntry
	bytes   int64  // sum of admitted entries' bytes
	clock   uint64 // advances per lookup; orders entries for eviction
}

type memoEntry struct {
	once   sync.Once
	events []Event
	err    error
	bytes  int64 // 0 until built and admitted
	used   uint64
}

func newMemo(capBytes int64) *memo {
	return &memo{capBytes: capBytes, entries: make(map[string]*memoEntry)}
}

// errAbandoned is what waiters of a build that panicked are told; the
// entry is dropped, so a retry rebuilds.
var errAbandoned = errors.New("traffic: trace synthesis did not complete")

// get returns the events for key, calling build at most once however
// many callers ask concurrently. Failed builds are not retained.
func (c *memo) get(key string, build func() ([]Event, error)) ([]Event, error) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &memoEntry{err: errAbandoned}
		c.entries[key] = e
	}
	c.clock++
	e.used = c.clock
	c.mu.Unlock()

	e.once.Do(func() {
		defer c.admit(key, e)
		events, err := build()
		e.events, e.err = events[:len(events):len(events)], err
	})
	return e.events, e.err
}

// admit accounts a finished build against the cap, evicting the least
// recently used other entries until it fits. Errors and traces larger
// than the whole cap bypass the memo: their waiters get the result and
// the entry is forgotten.
func (c *memo) admit(key string, e *memoEntry) {
	size := int64(len(e.events))*eventBytes + int64(len(key))
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.err != nil || size > c.capBytes {
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		return
	}
	e.bytes = size
	c.bytes += size
	for c.bytes > c.capBytes {
		var victimKey string
		var victim *memoEntry
		for k, o := range c.entries {
			// In-flight builds hold no bytes yet and are not candidates.
			if o != e && o.bytes > 0 && (victim == nil || o.used < victim.used) {
				victimKey, victim = k, o
			}
		}
		delete(c.entries, victimKey)
		c.bytes -= victim.bytes
	}
}

// fabricKey names what the generators read of a fabric: its node
// numbering, which kind and grid dimensions determine.
func fabricKey(m topology.Topology) string {
	w, h := m.Dims()
	return fmt.Sprintf("%s %dx%d", m.Kind(), w, h)
}

// SharedProgram returns the concatenation of the segments over cycles
// cycles — segment i spans cycles/len(segs) cycles and draws from seed+i,
// so a single segment is exactly Synthetic — memoized per input tuple.
// The returned slice is shared: callers must not modify it.
func SharedProgram(m topology.Topology, segs []Segment, flits int, cycles int64, seed int64) ([]Event, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("traffic: empty program")
	}
	key := fmt.Appendf(nil, "program %s flits=%d cycles=%d seed=%d", fabricKey(m), flits, cycles, seed)
	for _, seg := range segs {
		if err := CheckSynthetic(seg.Pattern, seg.Rate, flits, cycles); err != nil {
			return nil, err
		}
		key = fmt.Appendf(key, " %q@%v", seg.Pattern, seg.Rate)
	}
	return shared.get(string(key), func() ([]Event, error) {
		return program(m, segs, flits, cycles, seed), nil
	})
}

// SharedTrace is Trace memoized per (fabric, benchmark parameters,
// cycles, dataFlits, seed). The returned slice is shared: callers must
// not modify it.
func (b Benchmark) SharedTrace(m topology.Topology, cycles int64, dataFlits int, seed int64) ([]Event, error) {
	if err := CheckTrace(cycles, dataFlits); err != nil {
		return nil, err
	}
	// The name does not reach the events; the six parameters do.
	key := fmt.Sprintf("trace %s flits=%d cycles=%d seed=%d %v %v %v %v %v %v", fabricKey(m), dataFlits, cycles, seed,
		b.RatePktPerKCycle, b.BurstOnProb, b.BurstOffProb, b.Locality, b.HotspotProb, b.ShortFrac)
	return shared.get(key, func() ([]Event, error) {
		return b.trace(m, cycles, dataFlits, seed), nil
	})
}
