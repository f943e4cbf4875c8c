// Package snap is the bit-identical checkpoint/restore substrate: a
// versioned, deterministic little-endian binary format (Writer/Reader
// with sticky errors and section tags), the Snapshotter interface every
// stateful subsystem implements, and a draw-counting rand.Source64 that
// makes math/rand consumers resumable by replay.
//
// Format discipline (DESIGN.md §15): every value is written in a fixed,
// canonical order — maps are iterated in sorted key order by the caller,
// floats are written as their IEEE-754 bit patterns, and slices are
// length-prefixed. Two snapshots of identical simulator states are
// therefore byte-identical, which is what lets tests compare snapshots
// directly instead of walking live state.
//
// Section tags ("NETW", "STAT", ...) are 4-byte markers written between
// subsystems. They carry no data; a reader that drifts out of sync with
// the writer (a version skew, a struct field added on one side only)
// fails fast at the next tag with both names in the error instead of
// silently misinterpreting payload bytes.
package snap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
)

// Magic identifies an rlnoc snapshot stream ("RLNS" little-endian).
const Magic uint32 = 0x534E4C52

// Version is the current snapshot format version. Restore refuses any
// other version: the format captures unexported simulator state, so
// cross-version compatibility is explicitly out of scope — a snapshot is
// resumable by the binary (or a behavior-identical build) that wrote it.
const Version uint32 = 1

// Snapshotter is implemented by every stateful subsystem. SnapState
// serializes the subsystem's mutable state; SnapRestore overwrites the
// state of a freshly constructed, structurally identical instance so the
// next Step continues bit-identically to the run that was snapshotted.
type Snapshotter interface {
	SnapState(w *Writer) error
	SnapRestore(r *Reader) error
}

// maxSliceLen bounds length prefixes on read so a corrupt or truncated
// snapshot fails with an error instead of a huge allocation.
const maxSliceLen = 1 << 30

// Writer serializes primitives little-endian with a sticky error: after
// the first failure every call is a no-op and Err/Flush report it, so
// subsystem SnapState code writes straight-line without per-call checks.
type Writer struct {
	w   *bufio.Writer
	buf [chunkBytes]byte // scalar staging, and the slice codecs' chunk
	err error
}

// chunkBytes is how many bytes the slice codecs encode or decode per
// trip through bufio: tables of tens of thousands of words move as a few
// dozen writes instead of one per element. The stream is unchanged.
const chunkBytes = 4096

// word64 is every integer type the format stores as 64 little-endian bits.
type word64 interface{ ~int | ~int64 | ~uint64 }

func write64s[T word64](w *Writer, v []T) {
	for len(v) > 0 && w.err == nil {
		n := min(len(v), chunkBytes/8)
		for i, x := range v[:n] {
			binary.LittleEndian.PutUint64(w.buf[i*8:], uint64(x))
		}
		w.write(w.buf[:n*8])
		v = v[n:]
	}
}

// NewWriter wraps w (buffered internally; call Flush when done).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Header writes the magic and version words that start every snapshot.
func (w *Writer) Header() {
	w.U32(Magic)
	w.U32(Version)
}

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Flush drains the internal buffer and returns the sticky error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
}

// Section writes a 4-byte subsystem tag. Tags must be exactly 4 bytes.
func (w *Writer) Section(tag string) {
	if len(tag) != 4 {
		w.fail(fmt.Errorf("snap: section tag %q is not 4 bytes", tag))
		return
	}
	w.write([]byte(tag))
}

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Fail records an error from a caller's own validation.
func (w *Writer) Fail(err error) { w.fail(err) }

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf[0] = v; w.write(w.buf[:1]) }

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 writes a little-endian uint16.
func (w *Writer) U16(v uint16) {
	binary.LittleEndian.PutUint16(w.buf[:2], v)
	w.write(w.buf[:2])
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.write(w.buf[:8])
}

// I32 writes a little-endian int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 writes a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as 64 bits.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes a float64 as its IEEE-754 bit pattern (exact, canonical).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Len writes a slice/map length prefix.
func (w *Writer) Len(n int) {
	if n < 0 || n > maxSliceLen {
		w.fail(fmt.Errorf("snap: length %d out of range", n))
		return
	}
	w.U32(uint32(n))
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(p []byte) {
	w.Len(len(p))
	w.write(p)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Len(len(s))
	w.write([]byte(s))
}

// I64s writes a length-prefixed []int64.
func (w *Writer) I64s(v []int64) {
	w.Len(len(v))
	write64s(w, v)
}

// RawI64s writes v as consecutive I64 values with no length prefix, for
// fixed-width records whose count the caller frames itself (trace events).
func (w *Writer) RawI64s(v []int64) { write64s(w, v) }

// F64s writes a length-prefixed []float64.
func (w *Writer) F64s(v []float64) {
	w.Len(len(v))
	for len(v) > 0 && w.err == nil {
		n := min(len(v), chunkBytes/8)
		for i, x := range v[:n] {
			binary.LittleEndian.PutUint64(w.buf[i*8:], math.Float64bits(x))
		}
		w.write(w.buf[:n*8])
		v = v[n:]
	}
}

// U64s writes a length-prefixed []uint64.
func (w *Writer) U64s(v []uint64) {
	w.Len(len(v))
	write64s(w, v)
}

// U32s writes a length-prefixed []uint32.
func (w *Writer) U32s(v []uint32) {
	w.Len(len(v))
	for len(v) > 0 && w.err == nil {
		n := min(len(v), chunkBytes/4)
		for i, x := range v[:n] {
			binary.LittleEndian.PutUint32(w.buf[i*4:], x)
		}
		w.write(w.buf[:n*4])
		v = v[n:]
	}
}

// Ints writes a length-prefixed []int (as 64-bit values).
func (w *Writer) Ints(v []int) {
	w.Len(len(v))
	write64s(w, v)
}

// Bools writes a length-prefixed []bool.
func (w *Writer) Bools(v []bool) {
	w.Len(len(v))
	for _, x := range v {
		w.Bool(x)
	}
}

// Reader deserializes a Writer stream with the same sticky-error
// discipline: after the first failure every call returns the zero value.
type Reader struct {
	r   *bufio.Reader
	buf [chunkBytes]byte // scalar staging, and the slice codecs' chunk
	err error
}

// read64s fills dst from the stream, a chunk per read.
func read64s[T word64](r *Reader, dst []T) {
	for len(dst) > 0 {
		n := min(len(dst), chunkBytes/8)
		if !r.read(r.buf[:n*8]) {
			return
		}
		for i := range dst[:n] {
			dst[i] = T(binary.LittleEndian.Uint64(r.buf[i*8:]))
		}
		dst = dst[n:]
	}
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Header reads and verifies the magic and version words.
func (r *Reader) Header() error {
	if m := r.U32(); r.err == nil && m != Magic {
		r.fail(fmt.Errorf("snap: bad magic %#x (not an rlnoc snapshot)", m))
	}
	if v := r.U32(); r.err == nil && v != Version {
		r.fail(fmt.Errorf("snap: snapshot version %d, this build reads %d", v, Version))
	}
	return r.err
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Fail records an error from a caller's own validation (config
// mismatches and the like), using the same sticky-error discipline.
func (r *Reader) Fail(err error) { r.fail(err) }

// fail records the first error, tagging it as a CorruptError: every
// failure a Reader can produce — truncation, bad magic, version skew,
// section drift, out-of-range lengths, caller-side structural
// mismatches — means the stream cannot be trusted, and recovery code
// keys "fall back to the previous checkpoint" off that one type.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = Corrupt(err)
	}
}

func (r *Reader) read(p []byte) bool {
	if r.err != nil {
		return false
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		r.fail(err)
		return false
	}
	return true
}

// Section reads a 4-byte tag and verifies it matches.
func (r *Reader) Section(tag string) {
	var got [4]byte
	if !r.read(got[:]) {
		return
	}
	if string(got[:]) != tag {
		r.fail(fmt.Errorf("snap: section %q, want %q (stream out of sync)", got[:], tag))
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.read(r.buf[:1]) {
		return 0
	}
	return r.buf[0]
}

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if !r.read(r.buf[:2]) {
		return 0
	}
	return binary.LittleEndian.Uint16(r.buf[:2])
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.read(r.buf[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:4])
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.read(r.buf[:8]) {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:8])
}

// I32 reads a little-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Len reads a length prefix, rejecting corrupt values.
func (r *Reader) Len() int {
	n := r.U32()
	if r.err == nil && n > maxSliceLen {
		r.fail(fmt.Errorf("snap: length %d out of range", n))
		return 0
	}
	return int(n)
}

// LenCheck reads a length prefix that must equal want — used for slices
// whose length is structural (per-router arrays, Q-tables) so a snapshot
// taken under a different configuration fails loudly.
func (r *Reader) LenCheck(want int) int {
	n := r.Len()
	if r.err == nil && n != want {
		r.fail(fmt.Errorf("snap: length %d, want %d (config mismatch?)", n, want))
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte slice.
func (r *Reader) Bytes() []byte {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	p := make([]byte, n)
	if !r.read(p) {
		return nil
	}
	return p
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// I64sInto reads a []int64 written by I64s into dst (length must match).
func (r *Reader) I64sInto(dst []int64) {
	r.LenCheck(len(dst))
	read64s(r, dst)
}

// RawI64sInto reads len(dst) consecutive I64 values (see Writer.RawI64s).
func (r *Reader) RawI64sInto(dst []int64) { read64s(r, dst) }

// F64sInto reads a []float64 written by F64s into dst (length must match).
func (r *Reader) F64sInto(dst []float64) {
	r.LenCheck(len(dst))
	r.f64s(dst)
}

func (r *Reader) f64s(dst []float64) {
	for len(dst) > 0 {
		n := min(len(dst), chunkBytes/8)
		if !r.read(r.buf[:n*8]) {
			return
		}
		for i := range dst[:n] {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[i*8:]))
		}
		dst = dst[n:]
	}
}

// U64sInto reads a []uint64 written by U64s into dst (length must match).
func (r *Reader) U64sInto(dst []uint64) {
	r.LenCheck(len(dst))
	read64s(r, dst)
}

// U32sInto reads a []uint32 written by U32s into dst (length must match).
func (r *Reader) U32sInto(dst []uint32) {
	r.LenCheck(len(dst))
	for len(dst) > 0 {
		n := min(len(dst), chunkBytes/4)
		if !r.read(r.buf[:n*4]) {
			return
		}
		for i := range dst[:n] {
			dst[i] = binary.LittleEndian.Uint32(r.buf[i*4:])
		}
		dst = dst[n:]
	}
}

// IntsInto reads a []int written by Ints into dst (length must match).
func (r *Reader) IntsInto(dst []int) {
	r.LenCheck(len(dst))
	read64s(r, dst)
}

// BoolsInto reads a []bool written by Bools into dst (length must match).
func (r *Reader) BoolsInto(dst []bool) {
	r.LenCheck(len(dst))
	for i := range dst {
		dst[i] = r.Bool()
	}
}

// Ints reads a []int with a caller-chosen length (variable-size queues).
func (r *Reader) Ints() []int {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	v := make([]int, n)
	read64s(r, v)
	return v
}

// F64s reads a []float64 with a variable length.
func (r *Reader) F64s() []float64 {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	v := make([]float64, n)
	r.f64s(v)
	return v
}

// U64s reads a []uint64 with a variable length.
func (r *Reader) U64s() []uint64 {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	v := make([]uint64, n)
	read64s(r, v)
	return v
}

// CountingSource is a rand.Source64 that counts draws. The simulator's
// three math/rand consumers (NI payload words, RL agent exploration, the
// DT training sampler) are seeded deterministically but consume an
// unpredictable number of draws; wrapping their sources lets a snapshot
// record the draw count and a restore replay the source to the same
// position, reproducing the remaining sequence bit-for-bit.
//
// Counting happens at the Source level, below math/rand's rejection
// loops (Float64's 1.0 retry, Int31n's modulo-bias retry), so the count
// is exact no matter which Rand methods consumed the draws.
type CountingSource struct {
	src   rand.Source64
	seed  int64
	draws uint64
}

// NewCountingSource returns a counting source over rand.NewSource(seed).
// The draw sequence is identical to the unwrapped source's.
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{src: rand.NewSource(seed).(rand.Source64), seed: seed}
}

// Int63 draws like the underlying source, counting the draw.
func (s *CountingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

// Uint64 draws like the underlying source, counting the draw.
func (s *CountingSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

// Seed reseeds the underlying source and resets the draw count.
func (s *CountingSource) Seed(seed int64) {
	s.seed = seed
	s.draws = 0
	s.src.Seed(seed)
}

// Draws returns the number of values drawn since the last (re)seed.
func (s *CountingSource) Draws() uint64 { return s.draws }

// Restore leaves the source exactly where a run that drew `draws` values
// since seeding would be. A source at or before that position — a freshly
// constructed one, as every restore starts from — is advanced the
// difference; only a source already past it is reseeded first (seeding
// math/rand's 607-word state costs as much as ten thousand draws). Each
// state advance is one additive-lagged-Fibonacci step, so replay costs
// nanoseconds per draw.
func (s *CountingSource) Restore(draws uint64) {
	if draws < s.draws {
		s.src.Seed(s.seed)
		s.draws = 0
	}
	for ; s.draws < draws; s.draws++ {
		s.src.Uint64()
	}
}

// Snap writes the draw count.
func (s *CountingSource) Snap(w *Writer) { w.U64(s.draws) }

// Unsnap reads a draw count and restores the source to that position.
func (s *CountingSource) Unsnap(r *Reader) {
	n := r.U64()
	if r.Err() != nil {
		return
	}
	s.Restore(n)
}
