package fault

import (
	"math"
	"testing"

	"rlnoc/internal/config"
)

func testModel(t testing.TB, numLinks int) *Model {
	t.Helper()
	m, err := New(config.Default().Fault, 1.0, numLinks, 42)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTableMatchesAnalytic sweeps temperature, utilization and both modes
// over every link and requires the memoized table to agree with the
// analytic ErrorProbability. The implementation caches the exact raw
// kernel value rather than a quantized bucket, so agreement is exact
// (== 0), comfortably inside the 1e-12 accuracy budget.
func TestTableMatchesAnalytic(t *testing.T) {
	const numLinks = 16
	m := testModel(t, numLinks)
	tab := NewTable(m, numLinks)
	// Two passes: the second exercises the cache-hit path on identical
	// inputs, which must still reproduce the analytic value bit-for-bit.
	for pass := 0; pass < 2; pass++ {
		for link := 0; link < numLinks; link++ {
			for tempC := 40.0; tempC <= 110.0; tempC += 3.7 {
				for util := 0.0; util <= 1.0; util += 0.21 {
					for _, relaxed := range []bool{false, true} {
						want := m.ErrorProbability(link, tempC, util, relaxed)
						got := tab.ErrorProbability(link, tempC, util, relaxed)
						if diff := math.Abs(got - want); diff > 1e-12 {
							t.Fatalf("pass %d link %d T=%g u=%g relaxed=%v: table %g, analytic %g (diff %g)",
								pass, link, tempC, util, relaxed, got, want, diff)
						}
						if got != want {
							t.Fatalf("pass %d link %d T=%g u=%g relaxed=%v: table %g not bit-identical to analytic %g",
								pass, link, tempC, util, relaxed, got, want)
						}
					}
				}
			}
		}
	}
}

// TestTableHitsOnRepeatedInputs pins the caching behavior: repeated
// lookups with unchanged (temp, util) must hit, a mode flip alone must
// not invalidate, and any input change must recompute.
func TestTableHitsOnRepeatedInputs(t *testing.T) {
	m := testModel(t, 4)
	tab := NewTable(m, 4)

	tab.ErrorProbability(0, 60, 0.1, false)
	if hits, misses := tab.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("cold lookup: hits=%d misses=%d, want 0/1", hits, misses)
	}
	tab.ErrorProbability(0, 60, 0.1, false) // same inputs
	tab.ErrorProbability(0, 60, 0.1, true)  // mode flip only: raw kernel reused
	if hits, misses := tab.Stats(); hits != 2 || misses != 1 {
		t.Fatalf("warm lookups: hits=%d misses=%d, want 2/1", hits, misses)
	}
	tab.ErrorProbability(0, 60.0001, 0.1, false) // temperature moved
	tab.ErrorProbability(0, 60.0001, 0.2, false) // utilization moved
	if hits, misses := tab.Stats(); hits != 2 || misses != 3 {
		t.Fatalf("after input changes: hits=%d misses=%d, want 2/3", hits, misses)
	}

	// Out-of-range links fall through to the analytic path.
	want := m.ErrorProbability(99, 60, 0, false)
	if got := tab.ErrorProbability(99, 60, 0, false); got != want {
		t.Fatalf("out-of-range link: table %g, analytic %g", got, want)
	}
}

// BenchmarkErrorProbability measures the analytic kernel — the cost the
// network used to pay for every link on every refresh.
func BenchmarkErrorProbability(b *testing.B) {
	m := testModel(b, 256)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += m.ErrorProbability(i&255, 61.25, 0.05, i&1 == 0)
	}
	_ = sink
}

// BenchmarkErrorProbabilityTable measures the memoized steady-state path
// (unchanged temperature and utilization, alternating modes) — the cost
// the network pays per link per refresh once the thermal grid settles.
func BenchmarkErrorProbabilityTable(b *testing.B) {
	m := testModel(b, 256)
	tab := NewTable(m, 256)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += tab.ErrorProbability(i&255, 61.25, 0.05, i&1 == 0)
	}
	_ = sink
}
