package power

// Checkpoint/restore (DESIGN.md §15): the meter's mutable state is the
// per-(router, event) count matrix, its copy at the last WindowReset and
// the static-energy accumulators. Params and the unit-energy table are
// configuration, rebuilt by NewMeter.

import "rlnoc/internal/snap"

// Snap walks the energy accounts; decoding overwrites a freshly
// constructed meter for the same router count.
func (m *Meter) Snap(c *snap.Codec) error {
	c.Section("POWR")
	c.I64s(m.cnt)
	c.I64s(m.base)
	c.F64s(m.staticPJ)
	return c.Err()
}
