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

	"rlnoc/internal/snap"
)

// SharesTableWith reports whether a and b learn into the same Table (the
// NewSharedAgents layout).
func (a *Agent) SharesTableWith(b *Agent) bool { return a.t == b.t }

// SnapTable walks the learned table (q and visit counts) in place, so
// agents sharing the Table observe a decode. Shared-table groups call
// this once per group.
func (a *Agent) SnapTable(c *snap.Codec) { a.t.snap(c) }

// snap walks the table as its rows: the row count, then for each touched
// state in ascending order its index and the raw words of q and visits.
// A decode starts from an empty table and appends exactly the stream's
// rows, so a restored table re-encodes to the same bytes. A count above
// NumStates, a state out of range or a state that does not ascend is
// corrupt.
func (t *Table) snap(c *snap.Codec) {
	c.Section("QTAB")
	n := len(t.rows) - 1
	c.Len(&n)
	if c.Err() == nil && n > NumStates {
		c.Fail(fmt.Errorf("rl: %d table rows, there are %d states", n, NumStates))
	}
	if c.Decoding() {
		clear(t.index[:])
		t.rows = t.rows[:1]
	}
	next := 0 // the lowest state the next row may hold
	for range n {
		if c.Err() != nil {
			return
		}
		if !c.Decoding() {
			for t.index[next] == 0 {
				next++
			}
		}
		s := uint16(next)
		c.U16(&s)
		if c.Decoding() && c.Err() == nil && (int(s) < next || int(s) >= NumStates) {
			c.Fail(fmt.Errorf("rl: table row for state %d, want one in [%d, %d)", s, next, NumStates))
			return
		}
		next = int(s) + 1
		r := t.write(int(s)) // appends when decoding; the existing row when encoding
		c.RawF64s(r.q[:])
		c.RawU32s(r.visits[:])
	}
}

// SnapLocal walks the per-agent state outside the shared tables.
func (a *Agent) SnapLocal(c *snap.Codec) {
	c.F64(&a.epsilon)
	c.Bool(&a.frozen)
	c.Bool(&a.hasPrev)
	a.prevState.Snap(c)
	c.Int(&a.prevAction)
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
