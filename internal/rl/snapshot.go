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

// SharesTableWith reports whether a and b alias the same Q-table storage
// (the NewSharedAgents layout).
func (a *Agent) SharesTableWith(b *Agent) bool {
	return len(a.q) > 0 && len(b.q) > 0 && &a.q[0] == &b.q[0]
}

// SnapTable walks the learned tables (q, optional q2, visit counts,
// reward sums) in place, so aliasing agents observe a decode through
// their shared slices. Shared-table groups call this once per group.
func (a *Agent) SnapTable(c *snap.Codec) {
	c.Section("QTAB")
	c.F64s(a.q)
	hasQ2 := a.q2 != nil
	c.Bool(&hasQ2)
	if c.Err() == nil && hasQ2 != (a.q2 != nil) {
		c.Fail(fmt.Errorf("rl: snapshot DoubleQ=%v, this run DoubleQ=%v (config mismatch)",
			hasQ2, a.q2 != nil))
	}
	if hasQ2 {
		c.F64s(a.q2)
	}
	c.U32s(a.visits)
	c.F64s(a.rsum)
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
