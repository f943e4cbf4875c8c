package power

// Checkpoint/restore (DESIGN.md §15): the meter's mutable state is the
// per-(router, event) count matrices, the link length-scale sums and the
// static-energy accumulators. Params and the unit-energy table are
// configuration, rebuilt by NewMeter.

import "rlnoc/internal/snap"

// Snap walks the cumulative and windowed energy accounts; decoding
// overwrites a freshly constructed meter for the same router count.
func (m *Meter) Snap(c *snap.Codec) error {
	c.Section("POWR")
	c.I64s(m.cnt)
	c.I64s(m.winCnt)
	c.F64s(m.linkScale)
	c.F64s(m.winLinkScale)
	c.F64s(m.staticPJ)
	c.F64s(m.windowStaticPJ)
	return c.Err()
}
