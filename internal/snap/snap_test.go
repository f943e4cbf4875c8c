package snap

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestRoundTripPrimitives writes one of everything and reads it back,
// checking values and that the stream is consumed exactly.
func TestRoundTripPrimitives(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Header()
	w.Section("TEST")
	w.U8(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.I32(-7)
	w.I64(-1 << 40)
	w.Int(-42)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))
	w.F64(0.0)
	w.Bytes([]byte{1, 2, 3})
	w.String("wormhole")
	w.String("")
	w.I64s([]int64{-1, 0, 1})
	w.F64s([]float64{0.5, -0.5})
	w.U64s([]uint64{9, 10})
	w.U32s([]uint32{11, 12})
	w.Ints([]int{-3, 3})
	w.Bools([]bool{true, false, true})
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	if err := r.Header(); err != nil {
		t.Fatalf("header: %v", err)
	}
	r.Section("TEST")
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip wrong")
	}
	if got := r.U16(); got != 0xBEEF {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I32(); got != -7 {
		t.Errorf("I32 = %d", got)
	}
	if got := r.I64(); got != -1<<40 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != -42 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 inf = %v", got)
	}
	if got := r.F64(); got != 0 {
		t.Errorf("F64 zero = %v", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.String(); got != "wormhole" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	i64s := make([]int64, 3)
	r.I64sInto(i64s)
	if i64s[0] != -1 || i64s[2] != 1 {
		t.Errorf("I64sInto = %v", i64s)
	}
	f64s := make([]float64, 2)
	r.F64sInto(f64s)
	if f64s[0] != 0.5 || f64s[1] != -0.5 {
		t.Errorf("F64sInto = %v", f64s)
	}
	u64s := make([]uint64, 2)
	r.U64sInto(u64s)
	if u64s[0] != 9 || u64s[1] != 10 {
		t.Errorf("U64sInto = %v", u64s)
	}
	u32s := make([]uint32, 2)
	r.U32sInto(u32s)
	if u32s[0] != 11 || u32s[1] != 12 {
		t.Errorf("U32sInto = %v", u32s)
	}
	ints := r.Ints()
	if len(ints) != 2 || ints[0] != -3 || ints[1] != 3 {
		t.Errorf("Ints = %v", ints)
	}
	bools := make([]bool, 3)
	r.BoolsInto(bools)
	if !bools[0] || bools[1] || !bools[2] {
		t.Errorf("BoolsInto = %v", bools)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("reader error: %v", err)
	}
	// The stream must be exactly consumed: one more read should fail.
	r.U8()
	if r.Err() == nil {
		t.Error("read past end succeeded; writer/reader call counts drifted")
	}
}

// TestSectionMismatch checks the out-of-sync detector names both tags.
func TestSectionMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("NETW")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.Section("STAT")
	err := r.Err()
	if err == nil {
		t.Fatal("mismatched section accepted")
	}
	if !strings.Contains(err.Error(), "NETW") || !strings.Contains(err.Error(), "STAT") {
		t.Errorf("error %q names neither tag", err)
	}
}

// TestBadSectionTag rejects tags that are not exactly 4 bytes.
func TestBadSectionTag(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	w.Section("TOOLONG")
	if w.Err() == nil {
		t.Error("7-byte tag accepted")
	}
}

// TestHeaderRejects checks bad magic and version skew fail loudly.
func TestHeaderRejects(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(0x12345678) // wrong magic
	w.U32(Version)
	w.Flush()
	if err := NewReader(bytes.NewReader(buf.Bytes())).Header(); err == nil {
		t.Error("bad magic accepted")
	}

	buf.Reset()
	w = NewWriter(&buf)
	w.U32(Magic)
	w.U32(Version + 1)
	w.Flush()
	if err := NewReader(bytes.NewReader(buf.Bytes())).Header(); err == nil {
		t.Error("future version accepted")
	}
}

// TestLenCheckMismatch checks the structural-length guard fires when a
// snapshot from a differently sized configuration is read back.
func TestLenCheckMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.I64s([]int64{1, 2, 3})
	w.Flush()
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.I64sInto(make([]int64, 4))
	if r.Err() == nil {
		t.Error("length mismatch accepted")
	}
}

// TestStickyErrors checks both halves go quiet after the first failure.
func TestStickyErrors(t *testing.T) {
	// Reader: truncated stream; every later call returns the zero value
	// and the first error is preserved.
	r := NewReader(bytes.NewReader([]byte{0x01}))
	r.U64()
	first := r.Err()
	if first == nil {
		t.Fatal("truncated U64 read succeeded")
	}
	if got := r.U32(); got != 0 {
		t.Errorf("post-error U32 = %d, want 0", got)
	}
	if r.Err() != first {
		t.Error("first error not sticky")
	}

	// Writer: an injected failure suppresses later writes.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	werr := w.Err()
	if werr != nil {
		t.Fatal(werr)
	}
	w.Fail(errInjected)
	w.U64(7)
	if err := w.Flush(); err != errInjected {
		t.Errorf("Flush = %v, want injected error", err)
	}
	if buf.Len() != 0 {
		t.Errorf("post-error write emitted %d bytes", buf.Len())
	}
}

var errInjected = &injectedError{}

type injectedError struct{}

func (*injectedError) Error() string { return "injected" }

// TestTruncatedSlice checks a corrupt length prefix cannot trigger a
// huge allocation: Len rejects values over the cap.
func TestTruncatedSlice(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(0xFFFFFFFF) // length prefix far over maxSliceLen
	w.Flush()
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if p := r.Bytes(); p != nil || r.Err() == nil {
		t.Error("oversized length prefix accepted")
	}
}

// TestCountingSourceRestore verifies the fast-forward replay: a source
// restored to draw position n continues with exactly the values a
// continuously running source would produce, through both the Int63 and
// Uint64 paths and through math/rand's rejection-looping methods.
func TestCountingSourceRestore(t *testing.T) {
	const seed = 20260808
	ref := rand.New(NewCountingSource(seed))
	cs := NewCountingSource(seed)
	rng := rand.New(cs)

	// Burn a mixed workload so the draw count reflects rejection loops.
	for i := 0; i < 1000; i++ {
		rng.Float64()
		rng.Int31n(7)
		rng.Uint64()
		ref.Float64()
		ref.Int31n(7)
		ref.Uint64()
	}
	draws := cs.Draws()
	if draws < 3000 {
		t.Fatalf("draw count %d below the minimum 3 per iteration", draws)
	}

	// Restore a fresh source to the same position; it must continue in
	// lock-step with the reference that never stopped.
	cs2 := NewCountingSource(seed)
	cs2.Restore(draws)
	rng2 := rand.New(cs2)
	for i := 0; i < 1000; i++ {
		if a, b := ref.Uint64(), rng2.Uint64(); a != b {
			t.Fatalf("draw %d after restore: %d != %d", i, b, a)
		}
	}
	if cs2.Draws() != draws+1000 {
		t.Errorf("post-restore draw count %d, want %d", cs2.Draws(), draws+1000)
	}
}

// TestCountingSourceRestoreFromAnyPosition: Restore lands on the same
// stream position whether the source starts fresh, behind the target
// (advanced, never reseeded) or past it (reseeded and replayed).
func TestCountingSourceRestoreFromAnyPosition(t *testing.T) {
	const seed, target = 99, 500
	ref := NewCountingSource(seed)
	for i := 0; i < target; i++ {
		ref.Uint64()
	}
	want := ref.Uint64()
	for _, start := range []int{0, 1, target - 1, target, target + 1, 3 * target} {
		cs := NewCountingSource(seed)
		for i := 0; i < start; i++ {
			cs.Int63()
		}
		cs.Restore(target)
		if cs.Draws() != target {
			t.Errorf("start %d: draw count %d after Restore(%d)", start, cs.Draws(), target)
		}
		if got := cs.Uint64(); got != want {
			t.Errorf("start %d: next value %d, want %d", start, got, want)
		}
	}
}

// TestCountingSourceSnapUnsnap round-trips the draw count through the
// wire format.
func TestCountingSourceSnapUnsnap(t *testing.T) {
	cs := NewCountingSource(7)
	rng := rand.New(cs)
	for i := 0; i < 137; i++ {
		rng.Uint64()
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	cs.Snap(w)
	w.Flush()
	next := rng.Uint64() // first post-snapshot value; restore must reproduce it

	cs2 := NewCountingSource(7)
	r := NewReader(bytes.NewReader(buf.Bytes()))
	cs2.Unsnap(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if cs2.Draws() != 137 {
		t.Fatalf("restored draw count %d, want 137", cs2.Draws())
	}
	if got := rand.New(cs2).Uint64(); got != next {
		t.Errorf("restored source diverged: %d != %d", got, next)
	}
}

// TestCountingSourceSeedResets checks Seed resets the draw counter and
// the sequence.
func TestCountingSourceSeedResets(t *testing.T) {
	cs := NewCountingSource(1)
	a := cs.Uint64()
	cs.Seed(1)
	if cs.Draws() != 0 {
		t.Errorf("draws after reseed = %d", cs.Draws())
	}
	if b := cs.Uint64(); b != a {
		t.Errorf("reseeded sequence diverged: %d != %d", b, a)
	}
}

// TestDeterministicBytes: the same write sequence yields byte-identical
// streams — the property the snapshot-idempotence tests build on.
func TestDeterministicBytes(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Header()
		w.Section("DEMO")
		w.F64s([]float64{1.5, math.SmallestNonzeroFloat64})
		w.String("x")
		w.Flush()
		return buf.Bytes()
	}
	if !bytes.Equal(emit(), emit()) {
		t.Error("identical write sequences produced different bytes")
	}
}

// TestBulkSliceCodecFormat pins the chunked slice codecs to the wire
// format of the element-by-element ones they replaced: a length prefix
// followed by each element through the scalar writer. Lengths straddle
// the chunk boundary on both sides, and the read side must land every
// element and leave the stream exactly consumed.
func TestBulkSliceCodecFormat(t *testing.T) {
	in := rand.New(rand.NewSource(16))
	for _, n := range []int{0, 1, chunkBytes/8 - 1, chunkBytes / 8, chunkBytes/8 + 1, chunkBytes/4 + 1, 40_000} {
		f64 := make([]float64, n)
		u64 := make([]uint64, n)
		i64 := make([]int64, n)
		u32 := make([]uint32, n)
		ints := make([]int, n)
		for i := 0; i < n; i++ {
			f64[i] = math.Float64frombits(in.Uint64()) // every bit pattern, NaNs included
			u64[i] = in.Uint64()
			i64[i] = int64(in.Uint64())
			u32[i] = in.Uint32()
			ints[i] = int(int64(in.Uint64()))
		}

		var bulk, ref bytes.Buffer
		w := NewWriter(&bulk)
		w.F64s(f64)
		w.U64s(u64)
		w.I64s(i64)
		w.U32s(u32)
		w.Ints(ints)
		w.U8(0xEE)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		w = NewWriter(&ref)
		w.Len(n)
		for _, x := range f64 {
			w.F64(x)
		}
		w.Len(n)
		for _, x := range u64 {
			w.U64(x)
		}
		w.Len(n)
		for _, x := range i64 {
			w.I64(x)
		}
		w.Len(n)
		for _, x := range u32 {
			w.U32(x)
		}
		w.Len(n)
		for _, x := range ints {
			w.Int(x)
		}
		w.U8(0xEE)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bulk.Bytes(), ref.Bytes()) {
			t.Fatalf("n=%d: chunked encoding differs from the element-wise format", n)
		}

		r := NewReader(bytes.NewReader(ref.Bytes()))
		gf, gu, gi, g32, gn := make([]float64, n), make([]uint64, n), make([]int64, n), make([]uint32, n), make([]int, n)
		r.F64sInto(gf)
		r.U64sInto(gu)
		r.I64sInto(gi)
		r.U32sInto(g32)
		r.IntsInto(gn)
		if r.U8() != 0xEE || r.Err() != nil {
			t.Fatalf("n=%d: stream not consumed exactly (err %v)", n, r.Err())
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(gf[i]) != math.Float64bits(f64[i]) || gu[i] != u64[i] || gi[i] != i64[i] || g32[i] != u32[i] || gn[i] != ints[i] {
				t.Fatalf("n=%d: element %d did not round-trip", n, i)
			}
		}

		// The variable-length readers share the chunked path.
		r = NewReader(bytes.NewReader(ref.Bytes()))
		vf, vu := r.F64s(), r.U64s()
		r.I64sInto(gi)
		r.U32sInto(g32)
		vn := r.Ints()
		if r.U8() != 0xEE || r.Err() != nil || len(vf) != n || len(vu) != n || len(vn) != n {
			t.Fatalf("n=%d: variable-length read drifted (err %v)", n, r.Err())
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(vf[i]) != math.Float64bits(f64[i]) || vu[i] != u64[i] || vn[i] != ints[i] {
				t.Fatalf("n=%d: variable-length element %d did not round-trip", n, i)
			}
		}
	}
}

// TestBulkSliceTruncation: a stream that ends inside a chunk fails with
// the sticky corrupt error, as a truncated scalar does.
func TestBulkSliceTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.F64s(make([]float64, 2000))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{5, 4 + chunkBytes - 1, buf.Len() - 1} {
		r := NewReader(bytes.NewReader(buf.Bytes()[:cut]))
		r.F64sInto(make([]float64, 2000))
		if !IsCorrupt(r.Err()) {
			t.Errorf("cut at %d: err = %v, want a corrupt-stream error", cut, r.Err())
		}
	}
}

func BenchmarkSliceCodec(b *testing.B) {
	table := make([]float64, 40_000)
	for i := range table {
		table[i] = float64(i) * 0.25
	}
	var buf bytes.Buffer
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(table)) * 8)
		for i := 0; i < b.N; i++ {
			buf.Reset()
			w := NewWriter(&buf)
			w.F64s(table)
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(table)) * 8)
		for i := 0; i < b.N; i++ {
			r := NewReader(bytes.NewReader(buf.Bytes()))
			r.F64sInto(table)
			if r.Err() != nil {
				b.Fatal(r.Err())
			}
		}
	})
}
