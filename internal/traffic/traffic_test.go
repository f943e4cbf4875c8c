package traffic

import (
	"bytes"
	"strings"
	"testing"

	"rlnoc/internal/topology"
)

func mesh8(t *testing.T) topology.Topology {
	t.Helper()
	m, err := topology.NewMesh(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSyntheticAllPatternsValid(t *testing.T) {
	m := mesh8(t)
	for _, p := range Patterns() {
		events, err := Synthetic(m, p, 0.01, 4, 2000, 1)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(events) == 0 {
			t.Fatalf("%s: empty trace", p)
		}
		if err := Validate(m, events); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
}

// TestUnknownPatternRejected: a pattern name outside Patterns() is an
// error naming it, from Synthetic and from any segment of SharedProgram,
// never an empty trace.
func TestUnknownPatternRejected(t *testing.T) {
	m := mesh8(t)
	const want = `traffic: unknown pattern "nosuch" (want uniform, transpose,`
	if _, err := Synthetic(m, "nosuch", 0.01, 4, 2000, 1); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Synthetic: err = %v, want %q", err, want)
	}
	for _, segs := range [][]Segment{{{"nosuch", 0.01}}, {{Uniform, 0.01}, {"nosuch", 0.01}}} {
		if _, err := SharedProgram(m, segs, 4, 2000, 1); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("SharedProgram %v: err = %v, want %q", segs, err, want)
		}
	}
}

func TestSyntheticRateControlsVolume(t *testing.T) {
	m := mesh8(t)
	low, err := Synthetic(m, Uniform, 0.002, 4, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	high, err := Synthetic(m, Uniform, 0.02, 4, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(high) < 5*len(low) {
		t.Fatalf("rate scaling broken: low=%d high=%d", len(low), len(high))
	}
	// Expected packet count: rate * nodes * cycles.
	want := 0.02 * 64 * 5000
	got := float64(len(high))
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("high trace has %g packets, want ~%g", got, want)
	}
}

func TestSyntheticRejectsBadArgs(t *testing.T) {
	m := mesh8(t)
	if _, err := Synthetic(m, Uniform, -0.1, 4, 100, 1); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := Synthetic(m, Uniform, 2, 4, 100, 1); err == nil {
		t.Error("rate > 1 accepted")
	}
	if _, err := Synthetic(m, Uniform, 0.1, 0, 100, 1); err == nil {
		t.Error("zero flits accepted")
	}
	if _, err := Synthetic(m, Uniform, 0.1, 4, -1, 1); err == nil {
		t.Error("negative cycles accepted")
	}
}

func TestTransposePattern(t *testing.T) {
	m := mesh8(t)
	events, err := Synthetic(m, Transpose, 0.05, 1, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		s, d := m.Coord(e.Src), m.Coord(e.Dst)
		if s.X != d.Y || s.Y != d.X {
			t.Fatalf("transpose sent %v -> %v", s, d)
		}
	}
}

func TestBitComplementPattern(t *testing.T) {
	m := mesh8(t)
	events, err := Synthetic(m, BitComplement, 0.05, 1, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Dst != (^e.Src)&63 {
			t.Fatalf("bit complement sent %d -> %d", e.Src, e.Dst)
		}
	}
}

func TestNeighborPattern(t *testing.T) {
	m := mesh8(t)
	events, err := Synthetic(m, Neighbor, 0.05, 1, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		s, d := m.Coord(e.Src), m.Coord(e.Dst)
		if d.X != (s.X+1)%8 || d.Y != s.Y {
			t.Fatalf("neighbor sent %v -> %v", s, d)
		}
	}
}

func TestHotspotConcentratesTraffic(t *testing.T) {
	m := mesh8(t)
	events, err := Synthetic(m, Hotspot, 0.02, 1, 5000, 5)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for _, e := range events {
		counts[e.Dst]++
	}
	center := m.ID(topology.Coord{X: 4, Y: 4})
	corner := m.ID(topology.Coord{X: 7, Y: 7})
	if counts[center] < 5*counts[corner] {
		t.Fatalf("hotspot not hot: center=%d corner=%d", counts[center], counts[corner])
	}
}

func TestPatternsOnNonPowerOfTwoMesh(t *testing.T) {
	m, err := topology.NewMesh(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Patterns() {
		events, err := Synthetic(m, p, 0.05, 2, 1000, 6)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if err := Validate(m, events); err != nil {
			t.Fatalf("%s on 3x5: %v", p, err)
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	m := mesh8(t)
	a, _ := Synthetic(m, Uniform, 0.01, 4, 1000, 7)
	b, _ := Synthetic(m, Uniform, 0.01, 4, 1000, 7)
	c, _ := Synthetic(m, Uniform, 0.01, 4, 1000, 8)
	if len(a) != len(b) {
		t.Fatal("same seed, different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds identical")
		}
	}
}

func TestBenchmarksTableShape(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 9 {
		t.Fatalf("have %d benchmarks, want 9", len(bs))
	}
	seen := make(map[string]bool)
	for _, b := range bs {
		if seen[b.Name] {
			t.Fatalf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if b.RatePktPerKCycle <= 0 {
			t.Errorf("%s: non-positive rate", b.Name)
		}
		if b.BurstOnProb <= 0 || b.BurstOffProb <= 0 {
			t.Errorf("%s: degenerate burst process", b.Name)
		}
		if b.Locality < 0 || b.Locality+b.HotspotProb > 1 {
			t.Errorf("%s: bad locality/hotspot split", b.Name)
		}
		if b.ShortFrac < 0 || b.ShortFrac > 1 {
			t.Errorf("%s: bad short fraction", b.Name)
		}
	}
}

func TestBenchmarkByName(t *testing.T) {
	b, err := BenchmarkByName("canneal")
	if err != nil || b.Name != "canneal" {
		t.Fatalf("BenchmarkByName(canneal) = %+v, %v", b, err)
	}
	if _, err := BenchmarkByName("doom"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestBenchmarkTracesValidAndOrdered(t *testing.T) {
	m := mesh8(t)
	for _, b := range Benchmarks() {
		events, err := b.Trace(m, 20000, 4, 1)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if len(events) == 0 {
			t.Fatalf("%s: empty trace", b.Name)
		}
		if err := Validate(m, events); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
	}
}

func TestBenchmarkIntensityOrdering(t *testing.T) {
	// canneal is the paper-style heavy benchmark; blackscholes the light
	// one. Their synthesized loads must reflect that.
	m := mesh8(t)
	light, _ := BenchmarkByName("blackscholes")
	heavy, _ := BenchmarkByName("canneal")
	le, err := light.Trace(m, 50000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	he, err := heavy.Trace(m, 50000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ll := OfferedLoad(m, le, 50000)
	hl := OfferedLoad(m, he, 50000)
	if hl < 2*ll {
		t.Fatalf("intensity ordering broken: canneal %g vs blackscholes %g", hl, ll)
	}
}

func TestOfferedLoadWithinPaperRange(t *testing.T) {
	// Max link utilization observed in the paper is 0.3 flits/cycle; the
	// per-node offered load must be low enough for that (on an 8x8 mesh
	// with XY routing, bisection-limited load is roughly 8x the per-link
	// load at the bisection).
	m := mesh8(t)
	for _, b := range Benchmarks() {
		events, err := b.Trace(m, 50000, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		load := OfferedLoad(m, events, 50000)
		if load > 0.12 {
			t.Errorf("%s: offered load %g flits/node/cycle too high", b.Name, load)
		}
	}
}

func TestOfferedLoadEdgeCases(t *testing.T) {
	m := mesh8(t)
	if OfferedLoad(m, nil, 0) != 0 {
		t.Error("zero-cycle load not 0")
	}
	if OfferedLoad(m, []Event{{Flits: 4}}, 100) == 0 {
		t.Error("nonzero trace reported zero load")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := mesh8(t)
	cases := []struct {
		name   string
		events []Event
	}{
		{"out of order", []Event{{Cycle: 5, Src: 0, Dst: 1, Flits: 1}, {Cycle: 4, Src: 0, Dst: 1, Flits: 1}}},
		{"negative cycle", []Event{{Cycle: -1, Src: 0, Dst: 1, Flits: 1}}},
		{"bad src", []Event{{Cycle: 0, Src: -1, Dst: 1, Flits: 1}}},
		{"bad dst", []Event{{Cycle: 0, Src: 0, Dst: 64, Flits: 1}}},
		{"self send", []Event{{Cycle: 0, Src: 3, Dst: 3, Flits: 1}}},
		{"zero flits", []Event{{Cycle: 0, Src: 0, Dst: 1, Flits: 0}}},
	}
	for _, tc := range cases {
		if err := Validate(m, tc.events); err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	m := mesh8(t)
	events, err := Synthetic(m, Uniform, 0.01, 4, 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("round trip: %d events, want %d", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got[i], events[i])
		}
	}
}

func TestReadTraceToleratesCommentsAndSorts(t *testing.T) {
	in := "# comment\n10 1 2 4\n\n5 3 4 1\n"
	events, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Cycle != 5 || events[1].Cycle != 10 {
		t.Fatalf("parsed %+v", events)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("1 2 three 4\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// FuzzReadTrace feeds the trace-file reader arbitrary bytes. Nothing may
// panic — not the reader, nor Validate on what it accepts — and every trace
// it accepts survives WriteTrace → ReadTrace unchanged.
func FuzzReadTrace(f *testing.F) {
	f.Add([]byte("# rlnoc trace v1: cycle src dst flits\n0 1 2 4\n3 5 0 1\n"))
	f.Add([]byte("10 1 2 4\r\n\n5 3 4 1\n# trailing comment"))
	f.Add([]byte("1 2 three 4\n"))
	f.Add([]byte("-1 0 64 -4\n9223372036854775807 63 0 1\n7 7 7 7 7\n"))
	m, err := topology.NewMesh(8, 8)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = Validate(m, events) // an error is an answer; a panic is the bug
		var buf bytes.Buffer
		if err := WriteTrace(&buf, events); err != nil {
			t.Fatal(err)
		}
		again, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-reading a written trace: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip: %d events, want %d", len(again), len(events))
		}
		for i := range again {
			if again[i] != events[i] {
				t.Fatalf("round trip: event %d = %+v, want %+v", i, again[i], events[i])
			}
		}
	})
}

func TestTraceRejectsBadArgs(t *testing.T) {
	m := mesh8(t)
	b, _ := BenchmarkByName("dedup")
	if _, err := b.Trace(m, 100, 0, 1); err == nil {
		t.Error("zero dataFlits accepted")
	}
	if _, err := b.Trace(m, -5, 4, 1); err == nil {
		t.Error("negative cycles accepted")
	}
}
