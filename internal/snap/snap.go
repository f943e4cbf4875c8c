// Package snap is the bit-identical checkpoint/restore substrate: a
// versioned, deterministic little-endian binary format moved by one
// bidirectional Codec (sticky errors, section tags), the Snapshotter
// interface every stateful subsystem implements, and a draw-counting
// rand.Source64 that makes math/rand consumers resumable by replay.
//
// One walk states the format (DESIGN.md §15): a subsystem lists its
// fields once, as pointers, and the same statements write them when the
// codec encodes and overwrite them when it decodes — a field cannot be
// written without being read. Every value moves in a fixed, canonical
// order: maps in sorted key order, floats as their IEEE-754 bit
// patterns, slices length-prefixed. Two snapshots of identical simulator
// states are therefore byte-identical, which is what lets tests compare
// snapshots directly instead of walking live state.
//
// Section tags ("NETW", "STAT", ...) are 4-byte markers between
// subsystems. They carry no data; a stream that drifts out of sync with
// the walk reading it (a version skew, a truncated section) fails fast
// at the next tag with both names in the error instead of silently
// misinterpreting payload bytes.
package snap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// Magic identifies an rlnoc snapshot stream ("RLNS" little-endian).
const Magic uint32 = 0x534E4C52

// Version is the current snapshot format version. Restore refuses any
// other version: the format captures unexported simulator state, so
// cross-version compatibility is explicitly out of scope — a snapshot is
// resumable by the binary (or a behavior-identical build) that wrote it.
// Version 2: packets carry keyed payload words (no NI draw counts), input
// VCs their ring head, the drop counters a mode2-dup reason, and a
// mid-measure checkpoint only the trace events not yet injected.
// Version 3: a Q-table carries only its touched rows, and a trained DT
// controller no training set.
// Version 4: the write-only words are gone (latency EWMA, packet inject
// cycle, flit ECC flag, the retransmission flag of a wire flit and the
// Mode 2 flag of a retransmission-buffer entry, router flits-in window,
// grid version, two stats counters).
// Version 5: the pending trace is each source's packed event stream
// (uvarint cycle delta, destination, flit count) with its cycle base.
// Version 6: the statistics carry no per-router window; each router
// carries its own control-epoch words (flits in, NACKs out, latency sum
// and count, epoch-start energy) beside its error count.
// Version 7: the energy meter is one count matrix (link energy in tile
// pitches) and its copy at the last window reset; qroute's counters are
// network-wide scalars; an RL controller carries no state-visit map and
// an RL agent no update count.
// Version 8: a Q-table carries no Double-Q flag and each row no second
// estimate.
// Version 9: a Q-table row carries no reward sums, the statistics no
// network-latency sum, and a trained DT controller no fitted-sample count.
// Version 10: a buffered flit carries no readiness cycle (the fill is
// derived from its HopStart), and each router carries its link epoch
// counters (flits out, NACKs in, residual corruption) in place of five
// ports' worth.
// Version 11: a flit is written inline at its one home (a VC buffer
// slot, a wire entry, a retransmission entry, a reassembly buffer), with
// no flit table; a port's downstream VC state is a credit byte per VC and
// the busy and pending-free masks as two 16-bit words.
const Version uint32 = 11

// Snapshotter is implemented by every stateful subsystem. Snap walks the
// subsystem's mutable state through c: an encoding codec serializes it; a
// decoding one overwrites the state of a freshly constructed,
// structurally identical instance so the next Step continues
// bit-identically to the run that was snapshotted.
type Snapshotter interface {
	Snap(c *Codec) error
}

// MaxLen bounds every length prefix, in both directions. It is a format
// limit, not an allocation budget: variable-length decodes grow with the
// bytes that actually arrive (see Blocks).
const MaxLen = 1 << 30

// chunkBytes is how many bytes the slice walks move per trip through
// bufio: tables of tens of thousands of words move as a few dozen
// transfers instead of one per element. The stream is unchanged.
const chunkBytes = 4096

// maxAhead is how many elements a variable-length decode may allocate
// beyond what the stream has delivered: a length prefix up to maxAhead is
// allocated exactly, a longer one is grown by doubling as elements
// arrive, so a flipped or truncated length costs a bounded allocation
// and then fails as corrupt instead of exhausting memory.
const maxAhead = 1 << 16

// Codec moves primitives little-endian in one direction fixed at
// construction: an encoder writes the pointed-to values, a decoder
// overwrites them. Errors are sticky: after the first failure every call
// is a no-op (a decoder stores zero values) and Err/Flush report it, so
// walks are straight-line without per-call checks.
type Codec struct {
	w   *bufio.Writer // encoding when non-nil
	r   *bufio.Reader // decoding when non-nil
	buf [chunkBytes]byte
	err error
	// replay lists the RNG sources a decode has read draw counts for, until
	// ReplayDraws moves them there.
	replay []pendingDraws
}

// pendingDraws is a decoded draw count awaiting its bound.
type pendingDraws struct {
	src   *CountingSource
	draws uint64
}

// bufSize is the stream buffer of every codec.
const bufSize = 1 << 16

// The codecs' stream buffers, reused across snapshots: a campaign writes
// a checkpoint every few thousand cycles per job, and each would
// otherwise allocate its own 64 KiB. Reuse cannot reach the stream: a
// buffer is Reset onto its new stream, and a Writer emits or a Reader
// returns only bytes that stream put there.
var (
	writers = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, bufSize) }}
	readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, bufSize) }}
)

// errReleased is the sticky error of a codec after Release.
var errReleased = errors.New("snap: codec used after Release")

// NewEncoder returns a codec that writes to w (buffered internally; call
// Flush when done, and Release after).
func NewEncoder(w io.Writer) *Codec {
	bw := writers.Get().(*bufio.Writer)
	bw.Reset(w)
	return &Codec{w: bw}
}

// NewDecoder returns a codec that reads from r (call Release when done).
func NewDecoder(r io.Reader) *Codec {
	br := readers.Get().(*bufio.Reader)
	br.Reset(r)
	return &Codec{r: br}
}

// Release returns the codec's stream buffer for reuse — without flushing
// it, so an encoder abandoned on an error writes nothing more — and makes
// every later call a no-op failing with a sticky error. A codec never
// released is collected with its buffer, which is correct, only slower.
func (c *Codec) Release() {
	if c.w != nil {
		c.w.Reset(nil)
		writers.Put(c.w)
	}
	if c.r != nil {
		c.r.Reset(nil)
		readers.Put(c.r)
	}
	c.w, c.r = nil, nil
	if c.err == nil {
		c.err = errReleased
	}
}

// Decoding reports the codec's direction. Walks branch on it only for
// steps that exist on one side: allocation, derived-state rebuilds and
// range checks when decoding, canonical ordering when encoding.
func (c *Codec) Decoding() bool { return c.r != nil }

// Err returns the first error encountered, if any.
func (c *Codec) Err() error { return c.err }

// Fail records an error from a walk's own validation with the same
// sticky discipline. Every failure of a decoder — truncation, bad magic,
// version skew, section drift, out-of-range lengths, structural
// mismatches against the restoring configuration — means the stream
// cannot be trusted, so it is tagged as a CorruptError: recovery code
// keys "fall back to the previous checkpoint" off that one type.
func (c *Codec) Fail(err error) {
	if c.err != nil {
		return
	}
	if c.Decoding() {
		err = Corrupt(err)
	}
	c.err = err
}

// Flush drains an encoder's buffer and returns the sticky error.
func (c *Codec) Flush() error {
	if c.err == nil && c.w != nil {
		c.err = c.w.Flush()
	}
	return c.err
}

// xfer moves p through the stream — out of p when encoding, into it when
// decoding — and reports whether the codec is still healthy.
func (c *Codec) xfer(p []byte) bool {
	if c.err != nil {
		return false
	}
	if c.Decoding() {
		if _, err := io.ReadFull(c.r, p); err != nil {
			c.Fail(err)
		}
	} else {
		_, c.err = c.w.Write(p)
	}
	return c.err == nil
}

// put encodes the low n bytes of v, little-endian.
func (c *Codec) put(n int, v uint64) {
	if c.err == nil {
		binary.LittleEndian.PutUint64(c.buf[:8], v)
		_, c.err = c.w.Write(c.buf[:n])
	}
}

// get decodes an n-byte little-endian word (zero after a failure).
func (c *Codec) get(n int) uint64 {
	binary.LittleEndian.PutUint64(c.buf[:8], 0)
	if !c.xfer(c.buf[:n]) {
		return 0
	}
	return binary.LittleEndian.Uint64(c.buf[:8])
}

// Header walks the magic and version words that start every snapshot,
// verifying them when decoding.
func (c *Codec) Header() error {
	m, v := Magic, Version
	c.U32(&m)
	if c.err == nil && m != Magic {
		c.Fail(fmt.Errorf("snap: bad magic %#x (not an rlnoc snapshot)", m))
	}
	c.U32(&v)
	if c.err == nil && v != Version {
		c.Fail(fmt.Errorf("snap: snapshot version %d, this build reads %d", v, Version))
	}
	return c.err
}

// Section walks a 4-byte subsystem tag, verifying it when decoding.
func (c *Codec) Section(tag string) {
	if len(tag) != 4 {
		c.Fail(fmt.Errorf("snap: section tag %q is not 4 bytes", tag))
		return
	}
	got := c.buf[:4]
	copy(got, tag)
	if c.xfer(got) && string(got) != tag {
		c.Fail(fmt.Errorf("snap: section %q, want %q (stream out of sync)", got, tag))
	}
}

// The scalar walks: an encoder reads *v and never writes it, a decoder
// overwrites it. They are spelled out (not generic over the integer
// types) so each inlines to a branch and one call, and a walk's locals
// stay off the heap.

// U8 walks one byte.
func (c *Codec) U8(v *uint8) {
	if c.Decoding() {
		*v = uint8(c.get(1))
	} else {
		c.put(1, uint64(*v))
	}
}

// Bool walks a bool as one byte, 0 or 1; a decoded byte of any other
// value is corrupt, so every stream a decode accepts re-encodes to itself.
func (c *Codec) Bool(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.U8(&b)
	if c.Decoding() {
		if b > 1 {
			c.Fail(fmt.Errorf("snap: bool byte %#x", b))
		}
		*v = b == 1
	}
}

// U16 walks a little-endian uint16.
func (c *Codec) U16(v *uint16) {
	if c.Decoding() {
		*v = uint16(c.get(2))
	} else {
		c.put(2, uint64(*v))
	}
}

// U32 walks a little-endian uint32.
func (c *Codec) U32(v *uint32) {
	if c.Decoding() {
		*v = uint32(c.get(4))
	} else {
		c.put(4, uint64(*v))
	}
}

// U64 walks a little-endian uint64.
func (c *Codec) U64(v *uint64) {
	if c.Decoding() {
		*v = c.get(8)
	} else {
		c.put(8, *v)
	}
}

// I32 walks a little-endian int32.
func (c *Codec) I32(v *int32) {
	if c.Decoding() {
		*v = int32(c.get(4))
	} else {
		c.put(4, uint64(*v))
	}
}

// I64 walks a little-endian int64.
func (c *Codec) I64(v *int64) {
	if c.Decoding() {
		*v = int64(c.get(8))
	} else {
		c.put(8, uint64(*v))
	}
}

// Int walks an int as 64 bits.
func (c *Codec) Int(v *int) {
	if c.Decoding() {
		*v = int(c.get(8))
	} else {
		c.put(8, uint64(*v))
	}
}

// F64 walks a float64 as its IEEE-754 bit pattern (exact, canonical).
func (c *Codec) F64(v *float64) {
	if c.Decoding() {
		*v = math.Float64frombits(c.get(8))
	} else {
		c.put(8, math.Float64bits(*v))
	}
}

// Enum walks a small enumeration (an operation mode, a flit kind, a port
// direction) as one byte.
func Enum[T ~int | ~uint8](c *Codec, v *T) {
	if c.Decoding() {
		*v = T(c.get(1))
	} else {
		c.put(1, uint64(*v))
	}
}

// Len walks a slice/map length prefix, rejecting values beyond MaxLen.
func (c *Codec) Len(n *int) {
	if !c.Decoding() && (*n < 0 || *n > MaxLen) {
		c.Fail(fmt.Errorf("snap: length %d out of range", *n))
		return
	}
	u := uint32(*n)
	c.U32(&u)
	if c.err == nil && u > MaxLen {
		c.Fail(fmt.Errorf("snap: length %d out of range", u))
		u = 0
	}
	*n = int(u)
}

// LenCheck walks a length prefix that must equal want — used for slices
// whose length is structural (per-router arrays, Q-tables) so a snapshot
// taken under a different configuration fails loudly.
func (c *Codec) LenCheck(want int) {
	n := want
	c.Len(&n)
	if c.err == nil && n != want {
		c.Fail(fmt.Errorf("snap: length %d, want %d (config mismatch?)", n, want))
	}
}

// Blocks walks a variable-length slice: a length prefix of at most bound,
// then the elements, handed to walk in runs of up to block. Decoding
// resizes *s in place — its capacity is reused, and beyond that it grows
// no further ahead of the stream than maxAhead allows — and hands walk
// zeroed elements to fill.
func Blocks[T any](c *Codec, s *[]T, bound, block int, walk func([]T)) {
	n := len(*s)
	c.Len(&n)
	if c.err == nil && n > bound {
		c.Fail(fmt.Errorf("snap: length %d exceeds its bound %d", n, bound))
	}
	if c.err != nil {
		return
	}
	if c.Decoding() {
		*s = (*s)[:0]
	}
	for lo := 0; lo < n && c.err == nil; lo += block {
		hi := min(lo+block, n)
		if c.Decoding() {
			if hi > cap(*s) {
				*s = append(make([]T, 0, min(n, max(2*cap(*s), maxAhead, hi))), *s...)
			}
			*s = (*s)[:hi]
			clear((*s)[lo:hi])
		}
		walk((*s)[lo:hi])
	}
}

// Slice walks a variable-length slice element by element (see Blocks).
func Slice[T any](c *Codec, s *[]T, bound int, elem func(*Codec, *T)) {
	Blocks(c, s, bound, chunkBytes/8, func(run []T) {
		for i := range run {
			elem(c, &run[i])
		}
	})
}

// Map walks a map in the canonical order cmp gives its keys: entry moves
// one key/value pair, and may derive the key from the value it decoded
// when the stream does not carry it. Decoding fills *m (allocating it if
// nil and the stream has entries) on top of whatever it held.
func Map[K comparable, V any](c *Codec, m *map[K]V, cmp func(a, b K) int, entry func(c *Codec, k *K, v *V)) {
	keys := SortedKeys(*m, cmp)
	n := len(keys)
	c.Len(&n)
	if c.Decoding() && n > 0 && *m == nil {
		*m = make(map[K]V, min(n, maxAhead))
	}
	for i := 0; i < n && c.err == nil; i++ {
		var k K
		var v V
		if !c.Decoding() {
			k, v = keys[i], (*m)[keys[i]]
		}
		entry(c, &k, &v)
		if c.Decoding() && c.err == nil {
			(*m)[k] = v
		}
	}
}

// SortedKeys returns m's keys in cmp order — the canonical iteration
// order of every map in a snapshot.
func SortedKeys[K comparable, V any](m map[K]V, cmp func(a, b K) int) []K {
	if len(m) == 0 {
		return nil
	}
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp)
	return keys
}

// Bytes walks a length-prefixed byte slice of variable length.
func (c *Codec) Bytes(p *[]byte) {
	Blocks(c, p, MaxLen, chunkBytes, func(run []byte) { c.xfer(run) })
}

// RawBytes moves exactly len(p) bytes, with no length prefix: the walk
// states the length elsewhere.
func (c *Codec) RawBytes(p []byte) { c.xfer(p) }

// String walks a length-prefixed string.
func (c *Codec) String(s *string) {
	b := []byte(*s)
	c.Bytes(&b)
	if c.Decoding() {
		*s = string(b)
	}
}

// word64 is every integer type the format stores as 64 little-endian bits.
type word64 interface{ ~int | ~int64 | ~uint64 }

// xfer64s moves v through the stream a chunk per transfer.
func xfer64s[T word64](c *Codec, v []T) {
	for len(v) > 0 && c.err == nil {
		n := min(len(v), chunkBytes/8)
		if !c.Decoding() {
			for i, x := range v[:n] {
				binary.LittleEndian.PutUint64(c.buf[i*8:], uint64(x))
			}
		}
		if c.xfer(c.buf[:n*8]) && c.Decoding() {
			for i := range v[:n] {
				v[i] = T(binary.LittleEndian.Uint64(c.buf[i*8:]))
			}
		}
		v = v[n:]
	}
}

// I64s walks a length-prefixed []int64 in place (the length is structural:
// a decoded prefix must match len(v)).
func (c *Codec) I64s(v []int64) {
	c.LenCheck(len(v))
	xfer64s(c, v)
}

// U64s walks a length-prefixed []uint64 in place (length must match).
func (c *Codec) U64s(v []uint64) {
	c.LenCheck(len(v))
	xfer64s(c, v)
}

// Ints walks a length-prefixed []int, as 64-bit values, in place (length
// must match).
func (c *Codec) Ints(v []int) {
	c.LenCheck(len(v))
	xfer64s(c, v)
}

// VarInts walks a []int of variable length, at most bound.
func (c *Codec) VarInts(v *[]int, bound int) {
	Blocks(c, v, bound, chunkBytes/8, func(run []int) { xfer64s(c, run) })
}

// F64s walks a length-prefixed []float64 in place (length must match).
func (c *Codec) F64s(v []float64) {
	c.LenCheck(len(v))
	c.RawF64s(v)
}

// RawF64s walks v with no length prefix, for vectors the caller frames
// itself (the words of one Q-table row).
func (c *Codec) RawF64s(v []float64) {
	for len(v) > 0 && c.err == nil {
		n := min(len(v), chunkBytes/8)
		if !c.Decoding() {
			for i, x := range v[:n] {
				binary.LittleEndian.PutUint64(c.buf[i*8:], math.Float64bits(x))
			}
		}
		if c.xfer(c.buf[:n*8]) && c.Decoding() {
			for i := range v[:n] {
				v[i] = math.Float64frombits(binary.LittleEndian.Uint64(c.buf[i*8:]))
			}
		}
		v = v[n:]
	}
}

// RawU32s walks v with no length prefix (see RawF64s).
func (c *Codec) RawU32s(v []uint32) {
	for len(v) > 0 && c.err == nil {
		n := min(len(v), chunkBytes/4)
		if !c.Decoding() {
			for i, x := range v[:n] {
				binary.LittleEndian.PutUint32(c.buf[i*4:], x)
			}
		}
		if c.xfer(c.buf[:n*4]) && c.Decoding() {
			for i := range v[:n] {
				v[i] = binary.LittleEndian.Uint32(c.buf[i*4:])
			}
		}
		v = v[n:]
	}
}

// Bools walks a length-prefixed []bool in place (length must match).
func (c *Codec) Bools(v []bool) {
	c.LenCheck(len(v))
	for i := range v {
		c.Bool(&v[i])
	}
}

// ReplayDraws restores every source decoded so far to its recorded
// position (Restore: the replay itself runs at the source's first draw).
// max is the caller's ceiling on how many values any one source can have
// drawn by the point the snapshot was taken; a count beyond it fails the
// decode as corrupt here, so a hostile count never reaches a draw.
func (c *Codec) ReplayDraws(max uint64) {
	for _, p := range c.replay {
		if p.draws > max {
			c.Fail(fmt.Errorf("snap: RNG draw count %d exceeds the ceiling of %d", p.draws, max))
			break
		}
		p.src.Restore(p.draws)
	}
	c.replay = nil
}
