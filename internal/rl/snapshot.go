package rl

// Checkpoint/restore for the tabular agents (DESIGN.md §15). An Agent's
// state splits into the learned tables — possibly shared across agents
// via NewSharedAgents — and per-agent locals (exploration cursor,
// epsilon, previous state/action). The caller (core.RLController) groups
// agents by table identity and walks each unique table once; every
// agent then walks only its locals. Decoding sets the counting RNG
// source's draw count, and the source replays to it at its next draw, so
// the next epsilon draw continues the original sequence.

import (
	"fmt"
	"math"

	"rlnoc/internal/snap"
)

// SharesTableWith reports whether a and b learn into the same Table (the
// NewSharedAgents layout).
func (a *Agent) SharesTableWith(b *Agent) bool { return a.t == b.t }

// SnapTable walks the learned tables (q, optional q2, visit counts,
// reward sums) in place, so agents sharing the Table observe a decode.
// Shared-table groups call this once per group.
func (a *Agent) SnapTable(c *snap.Codec) { a.t.snap(c) }

// snapChunk is how many states one codec transfer moves: 512 words, the
// codec's 4 KiB chunk.
const snapChunk = 128

// snap walks the table in its dense form, each field a length-prefixed
// NumStates x NumActions row-major vector, untouched states as zeros: the
// stream a dense table writes. A decode appends a row only for a state
// some word of which has non-zero bits (a stored -0.0 included), so a
// restored table is as sparse as the run it came from.
func (t *Table) snap(c *snap.Codec) {
	c.Section("QTAB")
	snapField(t, c, c.RawF64s, func(r *row) *[NumActions]float64 { return &r.q })
	hasQ2 := t.doubleQ
	c.Bool(&hasQ2)
	if c.Err() == nil && hasQ2 != t.doubleQ {
		c.Fail(fmt.Errorf("rl: snapshot DoubleQ=%v, this run DoubleQ=%v (config mismatch)",
			hasQ2, t.doubleQ))
	}
	if hasQ2 {
		snapField(t, c, c.RawF64s, func(r *row) *[NumActions]float64 { return &r.q2 })
	}
	snapField(t, c, c.RawU32s, func(r *row) *[NumActions]uint32 { return &r.visits })
	snapField(t, c, c.RawF64s, func(r *row) *[NumActions]float64 { return &r.rsum })
}

// snapField walks one field of every state (see snap), a chunk of states
// per raw transfer.
func snapField[T float64 | uint32](t *Table, c *snap.Codec, raw func([]T), field func(*row) *[NumActions]T) {
	c.LenCheck(NumStates * NumActions)
	var run [snapChunk * NumActions]T
	for lo := 0; lo < NumStates && c.Err() == nil; lo += snapChunk {
		n := min(snapChunk, NumStates-lo)
		for s := 0; s < n && !c.Decoding(); s++ {
			copy(run[s*NumActions:], field(t.read(lo + s))[:])
		}
		raw(run[:n*NumActions])
		for s := 0; s < n && c.Decoding(); s++ {
			if v := [NumActions]T(run[s*NumActions:]); t.index[lo+s] != 0 || nonZero(v) {
				*field(t.write(lo + s)) = v
			}
		}
	}
}

// nonZero reports whether any of v's words has a bit set: -0.0 counts,
// so a decode keeps it instead of reading back +0.0.
func nonZero[T float64 | uint32](v [NumActions]T) bool {
	for _, x := range v {
		if math.Float64bits(float64(x)) != 0 {
			return true
		}
	}
	return false
}

// SnapLocal walks the per-agent state outside the shared tables.
func (a *Agent) SnapLocal(c *snap.Codec) {
	c.F64(&a.epsilon)
	c.Bool(&a.frozen)
	c.Bool(&a.hasPrev)
	a.prevState.Snap(c)
	c.Int(&a.prevAction)
	c.I64(&a.updates)
	a.src.Snap(c)
}

// Snap walks a discretized state's six bucket indices.
func (s *State) Snap(c *snap.Codec) {
	c.U8(&s.Buf)
	c.U8(&s.InLink)
	c.U8(&s.OutLink)
	c.U8(&s.InNACK)
	c.U8(&s.OutNACK)
	c.U8(&s.Temp)
}

// Snap walks a route agent's Q-table. RouteAgents are passive (no RNG,
// no history), so the table is the whole state.
func (a *RouteAgent) Snap(c *snap.Codec) {
	c.Section("QRTE")
	c.F64s(a.q)
}
