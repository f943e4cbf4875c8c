package traffic

import (
	"fmt"
	"reflect"
	"testing"

	"rlnoc/internal/topology"
)

// referenceFabrics are the shapes the kernels are checked on: the
// paper's 8x8 mesh, the torus of the same size, and a non-square,
// non-power-of-two grid that sends the permutation patterns down their
// uniform fallbacks.
func referenceFabrics(t testing.TB) []topology.Topology {
	t.Helper()
	mesh, err := topology.NewMesh(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := topology.NewTorusOrder(8, 8, topology.OrderXY)
	if err != nil {
		t.Fatal(err)
	}
	odd, err := topology.NewMesh(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []topology.Topology{mesh, torus, odd}
}

// TestGeneratorsMatchReference holds the generation kernels to the exact
// event slices of the loops they replaced (reference_test.go): all eight
// patterns and all nine benchmarks, three fabrics, several seeds. (An
// unknown pattern is an error now, TestUnknownPatternRejected, so it has
// no trace to compare.)
func TestGeneratorsMatchReference(t *testing.T) {
	seeds := []int64{1, 2, 907, -5, 1 << 40}
	if testing.Short() {
		seeds = seeds[:2] // the reference loops are slow under -race
	}
	for _, m := range referenceFabrics(t) {
		w, h := m.Dims()
		fabric := fmt.Sprintf("%s-%dx%d", m.Kind(), w, h)
		for _, p := range Patterns() {
			for _, seed := range seeds {
				for _, rate := range []float64{0.004, 0.3} {
					got, err := Synthetic(m, p, rate, 4, 1500, seed)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refSynthetic(m, p, rate, 4, 1500, seed)
					if err != nil {
						t.Fatal(err)
					}
					if !sameEvents(got, want) {
						t.Fatalf("%s %s rate %g seed %d: kernel differs from the reference loop (%d vs %d events)",
							fabric, p, rate, seed, len(got), len(want))
					}
				}
			}
		}
		for _, b := range Benchmarks() {
			for _, seed := range seeds {
				got, err := b.Trace(m, 6000, 4, seed)
				if err != nil {
					t.Fatal(err)
				}
				want, err := b.refTrace(m, 6000, 4, seed)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 {
					t.Fatalf("%s %s seed %d: reference trace is empty; the comparison is vacuous", fabric, b.Name, seed)
				}
				if !sameEvents(got, want) {
					t.Fatalf("%s %s seed %d: kernel differs from the reference loop (%d vs %d events)",
						fabric, b.Name, seed, len(got), len(want))
				}
			}
		}
	}
}

// TestGeneratorsDegenerateFabrics covers the corners the plan tables
// special-case: a single node never injects, and a 2-wide grid has one
// hot node.
func TestGeneratorsDegenerateFabrics(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {2, 1}, {2, 2}, {1, 4}} {
		m, err := topology.NewMesh(dims[0], dims[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range Patterns() {
			got, _ := Synthetic(m, p, 0.5, 2, 400, 9)
			want, _ := refSynthetic(m, p, 0.5, 2, 400, 9)
			if !sameEvents(got, want) {
				t.Errorf("%dx%d %s: kernel differs from the reference loop", dims[0], dims[1], p)
			}
		}
	}
}

// TestProgramMatchesReference: the concatenated program (what
// core.Sim.Pretrain replays) equals the per-segment Synthetic calls and
// per-event appends it used to be built from — including lengths that
// do not divide by the segment count and ones shorter than it.
func TestProgramMatchesReference(t *testing.T) {
	segs := []Segment{{Uniform, 0.001}, {Uniform, 0.006}, {Hotspot, 0.004}, {Transpose, 0.003}, {Uniform, 0.009}, {Neighbor, 0.002}}
	for _, m := range referenceFabrics(t) {
		for _, cycles := range []int64{0, 1, 5, 6, 1000, 36_000, 36_005} {
			got := program(m, segs, 4, cycles, 31+900)
			want, err := refProgram(m, segs, 4, cycles, 31+900)
			if err != nil {
				t.Fatal(err)
			}
			if !sameEvents(got, want) {
				t.Fatalf("%s cycles %d: program differs from the reference concatenation (%d vs %d events)",
					m.Kind(), cycles, len(got), len(want))
			}
		}
		// One segment is exactly Synthetic: campaign.TraceSpec relies on it.
		got := program(m, []Segment{{Tornado, 0.02}}, 3, 2000, 77)
		want, _ := refSynthetic(m, Tornado, 0.02, 3, 2000, 77)
		if !sameEvents(got, want) {
			t.Fatalf("%s: single-segment program differs from Synthetic", m.Kind())
		}
	}
}

func sameEvents(a, b []Event) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// TestSyntheticAllocs: the kernels allocate their tables and the event
// slice — a count that does not grow with cycles x nodes. (The loops
// they replaced heap-allocated one stream per pair: 1.6 M objects for
// 25 k cycles on 8x8.)
func TestSyntheticAllocs(t *testing.T) {
	m := referenceFabrics(t)[0]
	canneal, err := BenchmarkByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	for _, cycles := range []int64{2_500, 25_000} {
		for name, gen := range map[string]func(){
			"uniform": func() { _, _ = Synthetic(m, Uniform, 0.006, 4, cycles, 1) },
			"hotspot": func() { _, _ = Synthetic(m, Hotspot, 0.006, 4, cycles, 1) },
			"canneal": func() { _, _ = canneal.Trace(m, cycles, 4, 1) },
		} {
			if allocs := testing.AllocsPerRun(2, gen); allocs > 24 {
				t.Errorf("%s over %d cycles: %.0f allocations, want a constant handful (<= 24)", name, cycles, allocs)
			}
		}
	}
}

func BenchmarkSynthetic(b *testing.B) {
	m := referenceFabrics(b)[0]
	canneal, _ := BenchmarkByName("canneal")
	b.Run("uniform-25k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = Synthetic(m, Uniform, 0.006, 4, 25_000, 1)
		}
	})
	b.Run("uniform-25k-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = refSynthetic(m, Uniform, 0.006, 4, 25_000, 1)
		}
	})
	b.Run("canneal-25k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = canneal.Trace(m, 25_000, 4, 1)
		}
	})
	b.Run("canneal-25k-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = canneal.refTrace(m, 25_000, 4, 1)
		}
	})
}
