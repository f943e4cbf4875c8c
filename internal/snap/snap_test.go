package snap

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

type color int

type pair struct {
	k uint64
	v bool
}

// prims holds one of everything the codec moves; its snap is the single
// walk both directions of TestRoundTripPrimitives run.
type prims struct {
	u8             uint8
	t, f           bool
	u16            uint16
	u32            uint32
	u64            uint64
	i32            int32
	i64            int64
	i              int
	pi, ninf, zero float64
	hue            color
	raw            []byte
	s, empty       string
	i64s           []int64
	f64s           []float64
	u64s           []uint64
	u32s           []uint32
	ints, varInts  []int
	bools          []bool
	pairs          []pair
	byKey          map[uint64]int32
}

func (p *prims) snap(c *Codec) {
	c.Header()
	c.Section("TEST")
	c.U8(&p.u8)
	c.Bool(&p.t)
	c.Bool(&p.f)
	c.U16(&p.u16)
	c.U32(&p.u32)
	c.U64(&p.u64)
	c.I32(&p.i32)
	c.I64(&p.i64)
	c.Int(&p.i)
	c.F64(&p.pi)
	c.F64(&p.ninf)
	c.F64(&p.zero)
	Enum(c, &p.hue)
	c.Bytes(&p.raw)
	c.String(&p.s)
	c.String(&p.empty)
	c.I64s(p.i64s)
	c.F64s(p.f64s)
	c.U64s(p.u64s)
	c.RawU32s(p.u32s)
	c.Ints(p.ints)
	c.VarInts(&p.varInts, MaxLen)
	c.Bools(p.bools)
	Slice(c, &p.pairs, 8, func(c *Codec, e *pair) {
		c.U64(&e.k)
		c.Bool(&e.v)
	})
	Map(c, &p.byKey, cmp.Compare[uint64], func(c *Codec, k *uint64, v *int32) {
		c.U64(k)
		c.I32(v)
	})
}

// TestRoundTripPrimitives walks one of everything out and back in,
// checking values and that the stream is consumed exactly.
func TestRoundTripPrimitives(t *testing.T) {
	in := prims{
		u8: 0xAB, t: true, u16: 0xBEEF, u32: 0xDEADBEEF, u64: 0x0123456789ABCDEF,
		i32: -7, i64: -1 << 40, i: -42, pi: math.Pi, ninf: math.Inf(-1), hue: 3,
		raw: []byte{1, 2, 3}, s: "wormhole",
		i64s: []int64{-1, 0, 1}, f64s: []float64{0.5, -0.5}, u64s: []uint64{9, 10},
		u32s: []uint32{11, 12}, ints: []int{-3, 3}, varInts: []int{7, -7, 70},
		bools: []bool{true, false, true}, pairs: []pair{{1, true}, {2, false}},
		byKey: map[uint64]int32{9: -9, 2: 20, 5: 50},
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	in.snap(enc)
	if err := enc.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	// Fixed-length slices decode in place; everything else starts zero
	// (with stale capacity in one variable-length slice, to be reused).
	out := prims{i64s: make([]int64, 3), f64s: make([]float64, 2), u64s: make([]uint64, 2),
		u32s: make([]uint32, 2), ints: make([]int, 2), bools: make([]bool, 3),
		pairs: make([]pair, 5, 8)}
	stale := &out.pairs[0]
	dec := NewDecoder(bytes.NewReader(buf.Bytes()))
	out.snap(dec)
	if err := dec.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if &out.pairs[0] != stale {
		t.Error("Slice reallocated a slice whose capacity sufficed")
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed values:\n in %+v\nout %+v", in, out)
	}
	// The stream must be exactly consumed: one more read should fail.
	var extra uint8
	dec.U8(&extra)
	if dec.Err() == nil {
		t.Error("read past end succeeded; the two directions moved different byte counts")
	}
}

// TestMapCanonicalOrder: a map encodes in sorted key order whatever its
// iteration order, so equal maps give equal bytes.
func TestMapCanonicalOrder(t *testing.T) {
	m := map[uint64]int32{}
	for k := uint64(0); k < 100; k++ {
		m[k*7919%101] = int32(k)
	}
	var buf bytes.Buffer
	c := NewEncoder(&buf)
	var seen []uint64
	Map(c, &m, cmp.Compare[uint64], func(c *Codec, k *uint64, v *int32) {
		seen = append(seen, *k)
		c.U64(k)
	})
	if !slices.IsSorted(seen) || len(seen) != len(m) {
		t.Errorf("map walked out of order or incompletely: %v", seen)
	}
}

// TestSectionMismatch checks the out-of-sync detector names both tags.
func TestSectionMismatch(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Section("NETW")
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.Section("STAT")
	err := dec.Err()
	if err == nil {
		t.Fatal("mismatched section accepted")
	}
	if !strings.Contains(err.Error(), "NETW") || !strings.Contains(err.Error(), "STAT") {
		t.Errorf("error %q names neither tag", err)
	}
}

// TestBadSectionTag rejects tags that are not exactly 4 bytes.
func TestBadSectionTag(t *testing.T) {
	c := NewEncoder(&bytes.Buffer{})
	c.Section("TOOLONG")
	if c.Err() == nil {
		t.Error("7-byte tag accepted")
	}
}

// TestHeaderRejects checks bad magic and version skew fail loudly; a
// checkpoint of the previous format names both versions.
func TestHeaderRejects(t *testing.T) {
	for name, words := range map[string][2]uint32{
		"bad magic":        {0x12345678, Version},
		"future version":   {Magic, Version + 1},
		"previous version": {Magic, Version - 1},
	} {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		enc.U32(&words[0])
		enc.U32(&words[1])
		enc.Flush()
		err := NewDecoder(bytes.NewReader(buf.Bytes())).Header()
		if !IsCorrupt(err) {
			t.Errorf("%s accepted (err %v)", name, err)
		}
		if want := fmt.Sprintf("snapshot version %d, this build reads %d", words[1], Version); words[0] == Magic && !strings.Contains(fmt.Sprint(err), want) {
			t.Errorf("%s: err %v, want one naming %q", name, err, want)
		}
	}
}

// TestBoolByteIsCanonical: a bool decodes from 0 or 1, and any other
// byte is corrupt, so a stream a decode accepts re-encodes to itself.
func TestBoolByteIsCanonical(t *testing.T) {
	for b, want := range map[byte]bool{0: false, 1: true} {
		v := !want
		dec := NewDecoder(bytes.NewReader([]byte{b}))
		if dec.Bool(&v); dec.Err() != nil || v != want {
			t.Errorf("byte %d decoded to %v, err %v", b, v, dec.Err())
		}
	}
	for _, b := range []byte{2, 0xff} {
		var v bool
		dec := NewDecoder(bytes.NewReader([]byte{b}))
		if dec.Bool(&v); !IsCorrupt(dec.Err()) {
			t.Errorf("bool byte %#x: err %v, want a CorruptError", b, dec.Err())
		}
	}
}

// TestLenCheckMismatch checks the structural-length guard fires when a
// snapshot from a differently sized configuration is read back.
func TestLenCheckMismatch(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.I64s([]int64{1, 2, 3})
	enc.Flush()
	dec := NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.I64s(make([]int64, 4))
	if dec.Err() == nil {
		t.Error("length mismatch accepted")
	}
}

// TestStickyErrors checks both directions go quiet after the first
// failure.
func TestStickyErrors(t *testing.T) {
	// Decoding: truncated stream; every later call stores the zero value
	// and the first error is preserved.
	dec := NewDecoder(bytes.NewReader([]byte{0x01}))
	var u64 uint64
	dec.U64(&u64)
	first := dec.Err()
	if first == nil {
		t.Fatal("truncated U64 read succeeded")
	}
	u32 := uint32(99)
	if dec.U32(&u32); u32 != 0 {
		t.Errorf("post-error U32 = %d, want 0", u32)
	}
	if dec.Err() != first {
		t.Error("first error not sticky")
	}

	// Encoding: an injected failure suppresses later writes, and is not
	// dressed up as a corrupt stream.
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.Err(); err != nil {
		t.Fatal(err)
	}
	enc.Fail(errInjected)
	seven := uint64(7)
	enc.U64(&seven)
	if err := enc.Flush(); err != errInjected {
		t.Errorf("Flush = %v, want injected error", err)
	}
	if buf.Len() != 0 {
		t.Errorf("post-error write emitted %d bytes", buf.Len())
	}
	if seven != 7 {
		t.Errorf("encoding changed the walked value to %d", seven)
	}
}

var errInjected = &injectedError{}

type injectedError struct{}

func (*injectedError) Error() string { return "injected" }

// TestTruncatedSlice checks a corrupt length prefix cannot trigger a
// huge allocation: Len rejects values over the cap.
func TestTruncatedSlice(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	huge := uint32(0xFFFFFFFF) // length prefix far over MaxLen
	enc.U32(&huge)
	enc.Flush()
	dec := NewDecoder(bytes.NewReader(buf.Bytes()))
	var p []byte
	if dec.Bytes(&p); p != nil || !IsCorrupt(dec.Err()) {
		t.Error("oversized length prefix accepted")
	}
}

// TestHostileLengthAllocatesAsBytesArrive: a length prefix the format
// allows but the stream cannot back — one flipped word in an otherwise
// small file — must fail as corrupt after a bounded allocation, for
// every variable-length walk, instead of reserving what it claims.
func TestHostileLengthAllocatesAsBytesArrive(t *testing.T) {
	var stream bytes.Buffer
	enc := NewEncoder(&stream)
	claimed := MaxLen
	enc.Len(&claimed)
	enc.F64s(make([]float64, 100_000)) // 800 KB of real data behind the lie
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	type wide struct{ a, b, c, d int64 }
	walks := map[string]func(*Codec){
		"Bytes":   func(c *Codec) { var p []byte; c.Bytes(&p) },
		"String":  func(c *Codec) { var s string; c.String(&s) },
		"VarInts": func(c *Codec) { var v []int; c.VarInts(&v, MaxLen) },
		"Slice": func(c *Codec) {
			var v []wide
			Slice(c, &v, MaxLen, func(c *Codec, e *wide) { c.I64(&e.a) })
		},
		"Map": func(c *Codec) {
			var m map[uint64]wide
			Map(c, &m, cmp.Compare[uint64], func(c *Codec, k *uint64, e *wide) { c.U64(k) })
		},
	}
	for name, walk := range walks {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dec := NewDecoder(bytes.NewReader(stream.Bytes()))
		walk(dec)
		runtime.ReadMemStats(&after)
		if !IsCorrupt(dec.Err()) {
			t.Errorf("%s: err = %v, want a corrupt-stream error", name, dec.Err())
		}
		if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 32 {
			t.Errorf("%s: a %d-element claim over a %d-byte stream allocated %.0f MB", name, claimed, stream.Len(), mb)
		}
	}
	// A bound below the format limit rejects the prefix outright.
	dec := NewDecoder(bytes.NewReader(stream.Bytes()))
	var v []int
	if dec.VarInts(&v, 1000); !IsCorrupt(dec.Err()) || v != nil {
		t.Errorf("length over its bound accepted (err %v)", dec.Err())
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

// TestCountingSourceRestoreFromAnyPosition: Restore lands on the stdlib
// source's stream position whether the source starts fresh (the count is
// only recorded), behind the target (its history kept, to be caught up at
// the next draw) or past it (its history dropped, to be recomputed from
// the seed). The targets straddle the generator's tap (273), its lag
// (607) and the history ring's wrap (640).
func TestCountingSourceRestoreFromAnyPosition(t *testing.T) {
	const seed = 99
	for _, target := range []int{0, 1, 272, 273, 500, 606, 607, 639, 640, 1500} {
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < target; i++ {
			ref.Uint64()
		}
		want := ref.Uint64()
		for _, start := range []int{0, 1, target - 1, target, target + 1, 3*target + 1} {
			if start < 0 {
				continue
			}
			cs := NewCountingSource(seed)
			for i := 0; i < start; i++ {
				cs.Int63()
			}
			cs.Restore(uint64(target))
			if cs.Draws() != uint64(target) {
				t.Errorf("target %d, start %d: draw count %d after Restore", target, start, cs.Draws())
			}
			if held, wantHeld := cs.hist != nil, start > 0 && start <= target; held != wantHeld {
				t.Errorf("target %d, start %d: holds history = %v after Restore, want %v", target, start, held, wantHeld)
			}
			if got := cs.Uint64(); got != want {
				t.Errorf("target %d, start %d: next value %d, want %d", target, start, got, want)
			}
		}
	}
}

// TestCountingSourceIsLazy: a source computes no history until its first
// draw — not at construction, Seed or a Restore of a source that holds
// none — and the values it then yields are the eager stdlib source's.
func TestCountingSourceIsLazy(t *testing.T) {
	cs := NewCountingSource(5)
	cs.Restore(40)
	cs.Seed(6)
	cs.Restore(40)
	if cs.hist != nil {
		t.Fatal("source holds history before its first draw")
	}
	eager := rand.NewSource(6).(rand.Source64)
	for i := 0; i < 40; i++ {
		eager.Uint64()
	}
	if got, want := cs.Int63(), eager.Int63(); got != want || cs.hist == nil || cs.Draws() != 41 {
		t.Fatalf("first draw %d (holds history %v, count %d), want %d at count 41", got, cs.hist != nil, cs.Draws(), want)
	}
	cs.Seed(6)
	if cs.hist != nil || cs.Draws() != 0 {
		t.Fatal("Seed kept the old state")
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
	enc := NewEncoder(&buf)
	cs.Snap(enc)
	enc.Flush()
	next := rng.Uint64() // first post-snapshot value; restore must reproduce it

	cs2 := NewCountingSource(7)
	dec := NewDecoder(bytes.NewReader(buf.Bytes()))
	cs2.Snap(dec)
	if cs2.Draws() != 0 {
		t.Fatalf("decode replayed %d draws before ReplayDraws supplied a ceiling", cs2.Draws())
	}
	dec.ReplayDraws(137)
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if cs2.Draws() != 137 {
		t.Fatalf("restored draw count %d, want 137", cs2.Draws())
	}
	if got := rand.New(cs2).Uint64(); got != next {
		t.Errorf("restored source diverged: %d != %d", got, next)
	}
}

// TestHostileDrawCountIsCorrupt: a draw count past the caller's ceiling —
// one over it, and the 1<<63 a flipped top bit produces, which would
// replay for centuries — fails the decode as corrupt without drawing.
func TestHostileDrawCountIsCorrupt(t *testing.T) {
	for _, draws := range []uint64{138, 1 << 63} {
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		enc.U64(&draws)
		enc.Flush()

		cs := NewCountingSource(7)
		dec := NewDecoder(bytes.NewReader(buf.Bytes()))
		cs.Snap(dec)
		dec.ReplayDraws(137)
		if err := dec.Err(); !IsCorrupt(err) {
			t.Errorf("draw count %d under a ceiling of 137: err = %v, want a CorruptError", draws, err)
		}
		if cs.Draws() != 0 {
			t.Errorf("draw count %d: source replayed %d draws before failing", draws, cs.Draws())
		}
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
		c := NewEncoder(&buf)
		c.Header()
		c.Section("DEMO")
		c.F64s([]float64{1.5, math.SmallestNonzeroFloat64})
		x := "x"
		c.String(&x)
		c.Flush()
		return buf.Bytes()
	}
	if !bytes.Equal(emit(), emit()) {
		t.Error("identical write sequences produced different bytes")
	}
}

// TestBulkSliceCodecFormat pins the chunked slice codecs to the wire
// format of the element-by-element ones they replaced: a length prefix
// followed by each element through the scalar writer (RawU32s writes the
// elements alone, with no prefix). Lengths straddle
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
		c := NewEncoder(&bulk)
		c.F64s(f64)
		c.U64s(u64)
		c.I64s(i64)
		c.RawU32s(u32)
		c.Ints(ints)
		mark := uint8(0xEE)
		c.U8(&mark)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		c = NewEncoder(&ref)
		c.Len(&n)
		for _, x := range f64 {
			c.F64(&x)
		}
		c.Len(&n)
		for _, x := range u64 {
			c.U64(&x)
		}
		c.Len(&n)
		for _, x := range i64 {
			c.I64(&x)
		}
		for _, x := range u32 {
			c.U32(&x)
		}
		c.Len(&n)
		for _, x := range ints {
			c.Int(&x)
		}
		c.U8(&mark)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bulk.Bytes(), ref.Bytes()) {
			t.Fatalf("n=%d: chunked encoding differs from the element-wise format", n)
		}

		c = NewDecoder(bytes.NewReader(ref.Bytes()))
		gf, gu, gi, g32, gn := make([]float64, n), make([]uint64, n), make([]int64, n), make([]uint32, n), make([]int, n)
		c.F64s(gf)
		c.U64s(gu)
		c.I64s(gi)
		c.RawU32s(g32)
		c.Ints(gn)
		mark = 0
		if c.U8(&mark); mark != 0xEE || c.Err() != nil {
			t.Fatalf("n=%d: stream not consumed exactly (err %v)", n, c.Err())
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(gf[i]) != math.Float64bits(f64[i]) || gu[i] != u64[i] || gi[i] != i64[i] || g32[i] != u32[i] || gn[i] != ints[i] {
				t.Fatalf("n=%d: element %d did not round-trip", n, i)
			}
		}

		// The variable-length walk shares the chunked path.
		c = NewDecoder(bytes.NewReader(ref.Bytes()))
		c.F64s(gf)
		c.U64s(gu)
		c.I64s(gi)
		c.RawU32s(g32)
		var vn []int
		c.VarInts(&vn, MaxLen)
		mark = 0
		if c.U8(&mark); mark != 0xEE || c.Err() != nil || len(vn) != n {
			t.Fatalf("n=%d: variable-length read drifted (err %v)", n, c.Err())
		}
		for i := 0; i < n; i++ {
			if vn[i] != ints[i] {
				t.Fatalf("n=%d: variable-length element %d did not round-trip", n, i)
			}
		}
	}
}

// TestBulkSliceTruncation: a stream that ends inside a chunk fails with
// the sticky corrupt error, as a truncated scalar does.
func TestBulkSliceTruncation(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.F64s(make([]float64, 2000))
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{5, 4 + chunkBytes - 1, buf.Len() - 1} {
		dec := NewDecoder(bytes.NewReader(buf.Bytes()[:cut]))
		dec.F64s(make([]float64, 2000))
		if !IsCorrupt(dec.Err()) {
			t.Errorf("cut at %d: err = %v, want a corrupt-stream error", cut, dec.Err())
		}
	}
}

// TestReleasedBuffersCarryNothing: a released codec's buffer goes back to
// the pool, the next codec that takes it sees only its own stream — an
// encoder abandoned mid-walk leaks no unflushed bytes into the next, and
// a decoder released with read-ahead left leaks none into the next — and
// a codec used after Release fails instead of touching the reused buffer.
func TestReleasedBuffersCarryNothing(t *testing.T) {
	var junk, want bytes.Buffer
	abandoned := NewEncoder(&junk)
	abandoned.U64s(make([]uint64, 100))
	abandoned.Release()
	if junk.Len() != 0 {
		t.Fatalf("Release flushed %d bytes of an abandoned encoder", junk.Len())
	}
	var v uint64 = 7
	abandoned.U64(&v)
	if !errors.Is(abandoned.Flush(), errReleased) {
		t.Fatal("a released encoder accepted a write")
	}
	enc := NewEncoder(&want)
	enc.U64(&v)
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	enc.Release()
	if want.Len() != 8 {
		t.Fatalf("the reused writer emitted %d bytes for one word", want.Len())
	}

	long := NewDecoder(bytes.NewReader(make([]byte, 1000)))
	long.U64(&v)
	long.Release()
	dec := NewDecoder(bytes.NewReader(want.Bytes()))
	var got uint64
	dec.U64(&got)
	dec.U8(new(uint8))
	if got != 7 || !IsCorrupt(dec.Err()) {
		t.Fatalf("reused reader gave %d then err %v; want 7 then the end of its own stream", got, dec.Err())
	}
	dec.Release()

	if allocs := testing.AllocsPerRun(20, func() {
		c := NewEncoder(io.Discard)
		c.U64(&v)
		c.Flush()
		c.Release()
		c = NewDecoder(bytes.NewReader(want.Bytes()))
		c.U64(&got)
		c.Release()
	}); allocs > 4 {
		t.Errorf("an encode and a decode made %.0f allocations; the stream buffers are not reused", allocs)
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
			c := NewEncoder(&buf)
			c.F64s(table)
			if err := c.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(table)) * 8)
		for i := 0; i < b.N; i++ {
			c := NewDecoder(bytes.NewReader(buf.Bytes()))
			c.F64s(table)
			if c.Err() != nil {
				b.Fatal(c.Err())
			}
		}
	})
}
