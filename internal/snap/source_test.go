package snap

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// edgeSeeds are the seeds math/rand's normalization treats specially:
// zero and the multiples of 2^31−1 (mapped to 89482311), negatives
// (shifted up by 2^31−1) and the int64 extremes.
var edgeSeeds = []int64{0, -1, int32max, -int32max, 2 * int32max, math.MinInt64, math.MaxInt64}

// drawBoth draws one value from each source by the same method, Int63
// when bit i of pattern is set and Uint64 otherwise.
func drawBoth(cs *CountingSource, ref rand.Source64, pattern uint64, i int) (got, want uint64) {
	if pattern>>(i%64)&1 == 1 {
		return uint64(cs.Int63()), uint64(ref.Int63())
	}
	return cs.Uint64(), ref.Uint64()
}

// TestCountingSourceMatchesStdlib is the referee for the re-derived
// stream: 2,000 mixed Int63/Uint64 draws must equal rand.NewSource's,
// value for value, over the edge seeds, the seeds around them and 1,000
// seeds spread over the whole int64 range.
func TestCountingSourceMatchesStdlib(t *testing.T) {
	seeds := append([]int64(nil), edgeSeeds...)
	for _, s := range edgeSeeds {
		for d := int64(-5); d <= 5; d++ {
			seeds = append(seeds, s+d) // wraps at the extremes: still seeds
		}
	}
	pick := rand.New(rand.NewSource(43))
	for range 1000 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for n, seed := range seeds {
		cs, ref := NewCountingSource(seed), rand.NewSource(seed).(rand.Source64)
		pattern := pick.Uint64()
		for i := range 2000 {
			if got, want := drawBoth(cs, ref, pattern, i); got != want {
				t.Fatalf("seed %d (#%d), draw %d: %d, want %d", seed, n, i, got, want)
			}
		}
	}
}

// TestCountingSourceBytes pins the memory the re-derivation exists for:
// a source that has drawn n values never allocates more than the stdlib
// source it replaces, and one that has drawn at most 64 — an agent in a
// short campaign job — stays within 1 KiB.
func TestCountingSourceBytes(t *testing.T) {
	const sources = 100
	perSource := func(n int, build func(seed int64) rand.Source64) uint64 {
		held := make([]rand.Source64, sources)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range held {
			held[i] = build(int64(i))
			for range n {
				held[i].Uint64()
			}
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(held)
		return (after.TotalAlloc - before.TotalAlloc) / sources
	}
	for _, n := range []int{1, 20, 64, 300, 607, 2000} {
		got := perSource(n, func(seed int64) rand.Source64 { return NewCountingSource(seed) })
		std := perSource(n, func(seed int64) rand.Source64 { return rand.NewSource(seed).(rand.Source64) })
		if got > std {
			t.Errorf("%d draws: %d B a source, more than rand.NewSource's %d B", n, got, std)
		}
		if n <= 64 && got > 1024 {
			t.Errorf("%d draws: %d B a source, budget 1 KiB", n, got)
		}
	}
}

// FuzzCountingSource draws n values (Int63 or Uint64 by the bits of
// pattern), restores to r and draws 8 more, all against rand.NewSource.
func FuzzCountingSource(f *testing.F) {
	for i, seed := range edgeSeeds {
		f.Add(seed, uint16(100*i), uint16(700-90*i), uint64(0x9e3779b97f4a7c15)>>i)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, r uint16, pattern uint64) {
		n = min(n, 4096)
		cs, ref := NewCountingSource(seed), rand.NewSource(seed).(rand.Source64)
		for i := range int(n) {
			if got, want := drawBoth(cs, ref, pattern, i); got != want {
				t.Fatalf("seed %d, draw %d: %d, want %d", seed, i, got, want)
			}
		}
		cs.Restore(uint64(r))
		ref = rand.NewSource(seed).(rand.Source64)
		for range r {
			ref.Uint64()
		}
		for i := range 8 {
			if got, want := drawBoth(cs, ref, pattern, i); got != want {
				t.Fatalf("seed %d, %d draws, Restore(%d), draw %d: %d, want %d", seed, n, r, i, got, want)
			}
		}
	})
}

// sourceSink keeps the benchmarks' draws from being optimized away.
var sourceSink uint64

// BenchmarkCountingSource times a short-lived source (seed + 20 draws:
// an agent in a campaign job) and a steady-state draw.
func BenchmarkCountingSource(b *testing.B) {
	b.Run("seed+20", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cs := NewCountingSource(int64(i))
			for range 20 {
				sourceSink += cs.Uint64()
			}
		}
	})
	b.Run("steady", func(b *testing.B) {
		b.ReportAllocs()
		cs := NewCountingSource(1)
		for range 1000 {
			cs.Uint64()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sourceSink += cs.Uint64()
		}
	})
}
