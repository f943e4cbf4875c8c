package fault

// Property pin for the counter-based RNG migration: SampleErrorBits
// must produce the same *distribution* whether it is driven by the old
// shared *rand.Rand or by per-(link, cycle) detrand streams. The draw
// procedure is source-agnostic (one gate draw + geometric escalation),
// so only the uniformity of the source matters; this test compares the
// empirical hit rate and the flip-count histogram between the two
// source kinds over a large fixed-seed sample and requires them to
// agree within a few percent. Deterministic: fixed seeds, no t.Parallel.

import (
	"math"
	"math/rand"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/detrand"
)

func TestSampleErrorBitsDistributionMatchesSharedRNG(t *testing.T) {
	cfg := config.Default().Fault
	m, err := New(cfg, 1.0, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	const draws = 400_000
	const p = 0.3 // high enough that escalation beyond 1 bit is common

	sample := func(next func() detrand.Source) (hitRate float64, hist [maxFlipBits + 1]float64) {
		hits := 0
		var counts [maxFlipBits + 1]int
		for i := 0; i < draws; i++ {
			bits := m.SampleErrorBits(next(), p)
			counts[bits]++
			if bits > 0 {
				hits++
			}
		}
		for b, c := range counts {
			hist[b] = float64(c) / draws
		}
		return float64(hits) / draws, hist
	}

	// Old style: every draw comes from one shared sequential generator.
	shared := rand.New(rand.NewSource(20260805))
	oldHit, oldHist := sample(func() detrand.Source { return shared })

	// New style: every event draws from its own (link, cycle)-keyed
	// stream, the way Step samples faults.
	i := uint64(0)
	var stream detrand.Stream
	newHit, newHist := sample(func() detrand.Source {
		stream = detrand.New(20260805, detrand.DomainLink, i%64, i/64)
		i++
		return &stream
	})

	if rel := math.Abs(newHit-oldHit) / oldHit; rel > 0.02 {
		t.Errorf("hit rate diverged: shared-rng %.4f vs keyed streams %.4f (%.1f%% relative)",
			oldHit, newHit, rel*100)
	}
	for b := 0; b <= maxFlipBits; b++ {
		diff := math.Abs(newHist[b] - oldHist[b])
		// Absolute tolerance: generous vs the ~0.001 binomial std dev
		// at 400k draws, tight enough to catch any real bias.
		if diff > 0.01 {
			t.Errorf("flip-count bucket %d diverged: shared-rng %.4f vs keyed streams %.4f",
				b, oldHist[b], newHist[b])
		}
	}
}

// TestFlipBitsDistinct pins FlipBits' contract under the new scratch
// array dedup: exactly n distinct bits flipped, for both source kinds.
func TestFlipBitsDistinct(t *testing.T) {
	for n := 1; n <= maxFlipBits; n++ {
		words := make([]uint64, 4)
		s := detrand.New(7, detrand.DomainLink, uint64(n), 0)
		FlipBits(&s, words, n)
		got := 0
		for _, w := range words {
			for ; w != 0; w &= w - 1 {
				got++
			}
		}
		if got != n {
			t.Errorf("FlipBits(%d) flipped %d bits", n, got)
		}
	}
	// n beyond the fixed scratch capacity must still flip n distinct bits.
	words := make([]uint64, 2)
	s := detrand.New(9, detrand.DomainLink, 0, 0)
	FlipBits(&s, words, 100)
	got := 0
	for _, w := range words {
		for ; w != 0; w &= w - 1 {
			got++
		}
	}
	if got != 100 {
		t.Errorf("FlipBits(100) flipped %d bits", got)
	}
}
