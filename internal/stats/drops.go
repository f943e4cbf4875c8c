package stats

// DropReason classifies every point where the network discards a flit or
// declares a packet undeliverable. Routing each discard through one
// counted seam is what lets the invariant layer's conservation ledger
// balance: injected = delivered + dropped-with-cause + in-flight.
type DropReason uint8

// Drop reasons. StaleSeq is the ARQ receive screen discarding a wire
// flit out of sequence (benign: go-back-N resends it), Duplicate the same
// screen discarding a Mode 2 pre-retransmitted copy whose original was
// already accepted (benign by design: the copy only exists in case the
// original failed); the rest are hard-fault casualties.
const (
	DropStaleSeq    DropReason = iota // ARQ out-of-sequence wire flit
	DropDuplicate                     // Mode 2 copy of an already accepted flit
	DropKilledLink                    // flit in flight on a link at the instant it died
	DropDeadRouter                    // flit or packet buffered in a router/NI that died
	DropUnreachable                   // packet declared undeliverable: no surviving route
	NumDropReasons
)

var dropReasonNames = [NumDropReasons]string{
	"stale-seq", "mode2-dup", "killed-link", "dead-router", "unreachable",
}

// String returns the reason's kebab-case name.
func (r DropReason) String() string {
	if r >= NumDropReasons {
		return "unknown"
	}
	return dropReasonNames[r]
}

// Drop counts one discard of the given reason. Unlike the measurement
// counters, drop counters are NOT gated on `measuring`: the conservation
// ledger must balance over the whole run, warm-up included. They live
// outside Summary so enabling hard faults cannot perturb the golden
// result bytes of fault-free runs.
func (c *Collector) Drop(r DropReason) { c.drops[r]++ }

// DropCounts returns a copy of the per-reason counters.
func (c *Collector) DropCounts() [NumDropReasons]int64 { return c.drops }
