// Package detrand provides counter-based deterministic random streams
// for the simulator's stochastic draw sites (fault injection, traffic
// generation). Unlike a single shared *rand.Rand, whose output depends
// on the global order in which draw sites happen to execute, a detrand
// Stream is keyed on (seed, domain, id, cycle): every draw site owns an
// independent stream whose values are a pure function of its key. That
// makes the simulation's random behavior invariant under traversal
// order — in particular between the dense and active-set Step() walks —
// while remaining fully reproducible from the run seed.
//
// The generator is splitmix64 (Steele, Lea & Flood, "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014): a 64-bit Weyl sequence
// pushed through an avalanching finalizer. It passes BigCrush in its
// reference form, costs a handful of arithmetic ops per draw, needs no
// allocation, and — critically for the keying scheme — the finalizer
// mixes a full 64-bit state change into every output bit, so adjacent
// keys (link i vs link i+1, cycle c vs cycle c+1) yield statistically
// independent streams (see the chi-squared smoke test).
package detrand

import "math/bits"

// Domains partition the key space so that, e.g., link 3 and node 3
// never share a stream. New draw-site families must claim a fresh
// domain constant.
const (
	// DomainLink keys per-(link, cycle) fault-injection streams; id is
	// topology.LinkIndex of the transmitting port.
	DomainLink uint64 = 1
	// DomainNode keys per-(node, cycle) streams for node-local draws.
	DomainNode uint64 = 2
	// DomainTraffic keys per-(source, cycle) synthetic/trace traffic
	// draws (injection gating, destination selection).
	DomainTraffic uint64 = 3
	// DomainTrafficInit keys per-source one-shot initialization draws
	// (e.g. the initial burst state of a trace source); cycle is 0.
	DomainTrafficInit uint64 = 4
	// DomainHardFault keys the randomized hard-fault (link/router kill)
	// schedule generator; id is the campaign run index, cycle is 0.
	DomainHardFault uint64 = 5
	// DomainQRoute keys per-(router, cycle) exploration draws for the
	// Q-routing scheme's epsilon-greedy next-hop selection; id is the
	// router ID. Keyed per cycle so the draw sequence is invariant under
	// router traversal order.
	DomainQRoute uint64 = 6
	// DomainPayload keys the payload words of one packet; id is the
	// packet ID, cycle is 0. The codes protecting a flit are linear, so
	// no word value reaches a result: the stream only has to make each
	// packet's words a pure function of (seed, packet). It keeps 8 after
	// domain 7 (retry-backoff jitter) was retired: renumbering it would
	// move every payload draw.
	DomainPayload uint64 = 8
)

// Source is the draw interface shared by detrand streams and
// *math/rand.Rand (which satisfies it structurally). Code that used to
// take *rand.Rand takes a Source instead, so call sites can migrate to
// keyed streams one at a time.
type Source interface {
	Float64() float64
	Intn(n int) int
	Uint64() uint64
}

// Stream is a splitmix64 generator. The zero value is a valid (if
// boring) stream; use New to derive one from a key. Stream is a small
// value type: keep it on the stack or embedded, pass *Stream where a
// Source is needed, and never share one across goroutines.
type Stream struct {
	state uint64
}

// golden is the splitmix64 Weyl increment, 2^64 / phi rounded to odd.
const golden = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 output finalizer (variant 13 of Stafford's
// mixers): every input bit avalanches to every output bit.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Key collapses (seed, domain, id, cycle) into a 64-bit stream key by
// absorbing each word through the finalizer, Weyl-offset so that a zero
// word still advances the sponge. Distinct tuples map to distinct
// streams with overwhelming probability (64-bit birthday bound over at
// most a few million live tuples per run).
func Key(seed int64, domain, id, cycle uint64) uint64 {
	k := mix64(uint64(seed) + golden)
	k = mix64(k + domain + golden)
	k = mix64(k + id + golden)
	k = mix64(k + cycle + golden)
	return k
}

// New returns the stream for the given key tuple.
func New(seed int64, domain, id, cycle uint64) Stream {
	return Stream{state: Key(seed, domain, id, cycle)}
}

// KeyPrefix is the (seed, domain, id) part of a stream key, absorbed
// once. A draw site that visits the same id on every cycle (a traffic
// source, say) hoists the prefix out of its cycle loop and pays one
// finalizer per stream instead of four.
type KeyPrefix uint64

// Prefix absorbs the first three words of a key tuple exactly as Key
// does: Prefix(seed, domain, id).At(cycle) is New(seed, domain, id, cycle).
func Prefix(seed int64, domain, id uint64) KeyPrefix {
	k := mix64(uint64(seed) + golden)
	k = mix64(k + domain + golden)
	k = mix64(k + id + golden)
	return KeyPrefix(k)
}

// At absorbs the cycle word and returns the tuple's stream.
func (p KeyPrefix) At(cycle uint64) Stream {
	return Stream{state: mix64(uint64(p) + cycle + golden)}
}

// Uint64 advances the stream and returns the next 64 uniform bits.
func (s *Stream) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits,
// matching the lattice used by math/rand's Float64 fast path.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand. The implementation is Lemire's multiply-shift reduction
// without the rejection step; the bias is < n/2^64, far below anything
// the simulator's statistics can resolve.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("detrand: Intn with non-positive n")
	}
	hi, _ := bits.Mul64(s.Uint64(), uint64(n))
	return int(hi)
}
