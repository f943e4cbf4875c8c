package stats

import (
	"fmt"
	"strings"
)

// RecoveryEntry records one hard-fault batch and when traffic first
// flowed again: KillCycle is the cycle the kill fired, FirstDeliveryAfter
// the cycle of the first data delivery at or after it (-1 while none has
// happened yet).
type RecoveryEntry struct {
	KillCycle          int64
	FirstDeliveryAfter int64
}

// RecoveryLog tracks time-to-recover across a hard-fault schedule. The
// network records a kill when a fault batch fires and a delivery on every
// data delivery; the log resolves each pending kill against the first
// delivery that follows it. It lives outside Summary so enabling it can
// never perturb golden result bytes. A nil *RecoveryLog is a valid no-op
// recorder.
type RecoveryLog struct {
	entries []RecoveryEntry
	pending int // index of the first entry with no delivery yet
}

// NewRecoveryLog returns an empty log.
func NewRecoveryLog() *RecoveryLog { return &RecoveryLog{} }

// RecordKill opens a new entry for a fault batch at cycle.
func (l *RecoveryLog) RecordKill(cycle int64) {
	if l == nil {
		return
	}
	l.entries = append(l.entries, RecoveryEntry{KillCycle: cycle, FirstDeliveryAfter: -1})
}

// RecordDelivery resolves every pending kill against a delivery at cycle.
func (l *RecoveryLog) RecordDelivery(cycle int64) {
	if l == nil {
		return
	}
	for l.pending < len(l.entries) {
		l.entries[l.pending].FirstDeliveryAfter = cycle
		l.pending++
	}
}

// Format renders the log as "kill@C1:+R1 kill@C2:+R2 ..." for campaign
// reports; unrecovered kills render as "+none".
func (l *RecoveryLog) Format() string {
	if l == nil || len(l.entries) == 0 {
		return "no kills"
	}
	var b strings.Builder
	for i, e := range l.entries {
		if i > 0 {
			b.WriteByte(' ')
		}
		if e.FirstDeliveryAfter < 0 {
			fmt.Fprintf(&b, "kill@%d:+none", e.KillCycle)
		} else {
			fmt.Fprintf(&b, "kill@%d:+%d", e.KillCycle, e.FirstDeliveryAfter-e.KillCycle)
		}
	}
	return b.String()
}

// QRouteTelemetry aggregates the qroute scheme's learned-routing
// counters: how often routeCompute consulted the agents (Decisions), how
// many of those drew a uniform exploration port (Explorations), how many
// blocked adaptive heads escalated onto the escape class (Escapes), how
// many fell back to the table route on an empty permitted mask
// (Fallbacks), and how many per-hop TD updates were applied (Updates).
type QRouteTelemetry struct {
	Decisions    int64
	Explorations int64
	Escapes      int64
	Fallbacks    int64
	Updates      int64
}

// Format renders the telemetry as a one-line campaign summary.
func (t QRouteTelemetry) Format() string {
	return fmt.Sprintf("qroute decisions=%d explore=%d escapes=%d fallbacks=%d updates=%d",
		t.Decisions, t.Explorations, t.Escapes, t.Fallbacks, t.Updates)
}
