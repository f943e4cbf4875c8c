package thermal

// Checkpoint/restore (DESIGN.md §15): the grid's mutable state is the
// tile temperature vector — the neighbor table and scratch buffer are
// structural, rebuilt by NewGrid.

import "rlnoc/internal/snap"

// Snap walks the tile temperatures; decoding overwrites a freshly
// constructed grid over the same fabric.
func (g *Grid) Snap(c *snap.Codec) error {
	c.Section("THRM")
	c.F64s(g.temp)
	return c.Err()
}
