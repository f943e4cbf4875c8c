package stats

// Checkpoint/restore for the measurement counters and the recovery log
// (DESIGN.md §15). Everything here is plain accumulated state, so the
// walk is a field-by-field list in declaration order.

import "rlnoc/internal/snap"

// Snap walks every counter and histogram bucket of the collector.
func (c *Collector) Snap(cd *snap.Codec) error {
	cd.Section("STAT")
	cd.Bool(&c.measuring)
	cd.I64(&c.PacketsInjected)
	cd.I64(&c.PacketsDelivered)
	cd.I64(&c.FlitsDelivered)
	cd.F64(&c.latSum)
	cd.I64(&c.latCount)
	cd.I64(&c.latMax)
	for i := range c.latHist {
		cd.I64(&c.latHist[i])
	}
	cd.I64(&c.SourceRetransmissions)
	cd.I64(&c.LinkRetransmissions)
	cd.I64(&c.PreRetransmissions)
	cd.I64(&c.ErrorsInjected)
	cd.I64(&c.ECCCorrections)
	cd.I64(&c.ECCDetections)
	cd.I64(&c.CRCFailures)
	cd.I64(&c.SilentCorruption)
	for i := range c.drops {
		cd.I64(&c.drops[i])
	}
	return cd.Err()
}

// Snap walks the recovery log. A nil log is an empty one on both sides
// (matching the nil-as-no-op recorder semantics): it encodes the empty
// record, and decoding into it consumes a record and keeps nothing.
func (l *RecoveryLog) Snap(c *snap.Codec) error {
	c.Section("RECV")
	if l == nil {
		l = &RecoveryLog{}
	}
	snap.Slice(c, &l.entries, snap.MaxLen, func(c *snap.Codec, e *RecoveryEntry) {
		c.I64(&e.KillCycle)
		c.I64(&e.FirstDeliveryAfter)
	})
	c.Int(&l.pending)
	return c.Err()
}
