package snap

import "math/rand"

// CountingSource is a rand.Source64 that counts draws. The simulator's
// math/rand consumers (RL agent exploration, the DT training sampler, the
// per-link process variation) are seeded deterministically but consume an
// unpredictable number of draws; counting them lets a snapshot record
// the draw count and a restore replay the source to the same position,
// reproducing the remaining sequence bit-for-bit.
//
// Counting happens at the Source level, below math/rand's rejection
// loops (Float64's 1.0 retry, Int31n's modulo-bias retry), so the count
// is exact no matter which Rand methods consumed the draws.
//
// The values are rand.NewSource(seed)'s, re-derived rather than drawn
// from it: the stdlib source seeds a 607-word register (5,376 bytes, as
// costly as some 3,500 draws) before its first value, and most sources
// here yield a few dozen. This one holds only what it has computed. Each
// register word is derived when a draw first needs it (three modular
// multiplications), and the values drawn so far sit in a ring of
// 32-value blocks, allocated as the count reaches them, that stops
// growing at the generator's 607-value look-back.
//
// The source is also lazy: its state is the seed and the logical draw
// count, and the history behind them is computed up to the count on the
// first draw, not in NewCountingSource, Seed or Restore. A restored 8x8
// rl simulation has 64 of these, one per agent, and typically draws from
// few of them, so a fork pays for exactly the streams it uses.
type CountingSource struct {
	x0    uint64 // the seed, normalized as math/rand's Seed does
	draws uint64 // values drawn since the last (re)seed
	done  uint64 // values computed into hist (≤ draws; the rest wait for the next draw)
	hist  *history
}

// The generator behind rand.NewSource, fixed since Go 1: output k is
// s_k = s_{k-607} + s_{k-273} (mod 2^64), and s_j for j < 0 is word
// (333-j) mod 607 of the seeded register. Register word i is
// x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i} ^ cooked[i], where
// x_m = x_0·48271^m mod (2^31-1) is the Park-Miller sequence from the
// normalized seed x_0.
const (
	rngLen   = 607
	rngTap   = 273
	rngFeed  = rngLen - rngTap - 1 // s_{-1} is register word rngFeed+1, s_{-607} word rngFeed
	int32max = 1<<31 - 1
	lcgMul   = 48271

	histBlock  = 32
	histBlocks = 20 // 640 slots: enough for the rngLen look-back
	histLen    = histBlock * histBlocks
)

var (
	// lcgPow[i] is 48271^(21+3i) mod int32max: the multiplier from x_0 to
	// register word i's first Park-Miller value.
	lcgPow [rngLen]uint64
	// cooked is math/rand's table of 607 seeding constants, recovered from
	// rand.NewSource(1)'s first 607 outputs.
	cooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for range 21 {
		p = p * lcgMul % int32max
	}
	const step = lcgMul * lcgMul % int32max * lcgMul % int32max
	for i := range lcgPow {
		lcgPow[i] = p
		p = p * step % int32max
	}

	// Seed 1's register, unwound from its first rngLen outputs o_k: for
	// k ≥ rngTap, o_k − o_{k−273} is the register word s_{k−607}; below,
	// o_k less the already-recovered word s_{k−273} is.
	src := rand.NewSource(1).(rand.Source64)
	var o, reg [rngLen]uint64
	for k := range o {
		o[k] = src.Uint64()
	}
	for k := rngTap; k < rngLen; k++ {
		reg[(rngLen+rngFeed-k)%rngLen] = o[k] - o[k-rngTap]
	}
	for k := range rngTap {
		reg[rngFeed-k] = o[k] - reg[rngLen-1-k]
	}
	for i := range cooked {
		cooked[i] = reg[i] ^ lcgWords(1, i)
	}
}

// lcgWords is register word i's Park-Miller part for normalized seed x0.
func lcgWords(x0 uint64, i int) uint64 {
	x1 := x0 * lcgPow[i] % int32max
	x2 := x1 * lcgMul % int32max
	x3 := x2 * lcgMul % int32max
	return x1<<40 ^ x2<<20 ^ x3
}

// normalize maps a seed to x_0 as math/rand's Seed does.
func normalize(seed int64) uint64 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// NewCountingSource returns a counting source whose draw sequence is
// rand.NewSource(seed)'s.
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{x0: normalize(seed)}
}

// word is register word i of the seeded source.
func (s *CountingSource) word(i int) uint64 { return lcgWords(s.x0, i) ^ cooked[i] }

// history is the ring of the last histLen values: s_k at slot k mod
// histLen, in blocks allocated as the count first reaches them.
type history [histBlocks]*[histBlock]uint64

// back is the value computed lag values before the one at slot.
func (h *history) back(slot, lag uint64) uint64 {
	j := slot + histLen - lag
	if j >= histLen {
		j -= histLen
	}
	return h[j/histBlock][j%histBlock]
}

// step computes the next value s_done into the history and returns it.
func (s *CountingSource) step() uint64 {
	k := s.done
	s.done++
	slot := k % histLen
	if k < histLen && slot%histBlock == 0 { // the first value in its block
		if k == 0 {
			s.hist = new(history)
		}
		s.hist[slot/histBlock] = new([histBlock]uint64)
	}
	h := s.hist
	var v uint64
	switch {
	case k >= rngLen:
		v = h.back(slot, rngLen) + h.back(slot, rngTap)
	case k >= rngTap:
		v = s.word((rngLen+rngFeed-int(k))%rngLen) + h.back(slot, rngTap)
	default:
		v = s.word(rngFeed-int(k)) + s.word(rngLen-1-int(k))
	}
	h[slot/histBlock][slot%histBlock] = v
	return v
}

// Uint64 draws like the underlying source, counting the draw.
func (s *CountingSource) Uint64() uint64 {
	for s.done < s.draws {
		s.step()
	}
	s.draws++
	return s.step()
}

// Int63 draws like the underlying source, counting the draw.
func (s *CountingSource) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// Seed reseeds the source and resets the draw count.
func (s *CountingSource) Seed(seed int64) {
	*s = CountingSource{x0: normalize(seed)}
}

// Draws returns the number of values drawn since the last (re)seed.
func (s *CountingSource) Draws() uint64 { return s.draws }

// Restore leaves the source exactly where a run that drew `draws` values
// since seeding would be. It only records the count: the next draw
// computes the values up to it. A source that has already computed past
// the position drops its history, to be recomputed from the seed.
func (s *CountingSource) Restore(draws uint64) {
	if draws < s.done {
		s.done, s.hist = 0, nil
	}
	s.draws = draws
}

// Snap walks the draw count. A decode only notes it: the replay is the
// one restore step whose cost the stream dictates — a flipped count would
// spin for up to 2^64 draws — so the count waits for ReplayDraws and the
// bound the walk supplies there.
func (s *CountingSource) Snap(c *Codec) {
	n := s.draws
	c.U64(&n)
	if c.Decoding() && c.Err() == nil {
		c.replay = append(c.replay, pendingDraws{s, n})
	}
}
