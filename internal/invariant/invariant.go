// Package invariant defines the simulator's runtime self-checks: a
// flit-conservation ledger, per-VC credit-balance bounds, and
// deadlock/livelock watchdogs. The package holds the check *policy* —
// whether the checks run, their bounds, and how violations are
// reported — while the probing itself lives in internal/network, which
// owns the state being checked. Checks are strictly observational: with
// the checks disabled the network takes no extra branches on its hot
// paths, and with checks enabled no simulation outcome changes — a run
// either completes identically or fails fast with a diagnostic report
// where it previously would have wedged or silently lied.
package invariant

import (
	"fmt"
	"strings"
)

// Parse interprets a check spec: "" or "off" disables the checks, "all"
// arms every one of them (the conservation ledger, per-VC credit
// balance, and the deadlock/livelock watchdogs).
func Parse(spec string) (bool, error) {
	switch strings.TrimSpace(spec) {
	case "", "off":
		return false, nil
	case "all":
		return true, nil
	}
	return false, fmt.Errorf("invariant: unknown check spec %q (want off|all)", spec)
}

// The watchdog bounds. All are deliberately loose — an order of
// magnitude past anything a healthy run produces — so a firing watchdog
// is evidence of a wedge, not of load. The fourth, the hop bound, scales
// with the fabric: a packet attempt that visits more than eight times as
// many routers as the fabric holds proves a routing loop.
const (
	// CheckPeriod is the cycle interval between full censuses (the
	// per-cycle watchdog state updates are O(1); the ledger and credit
	// walks are O(network) and amortized over this period).
	CheckPeriod int64 = 1024
	// ProgressWindow is the number of cycles without any flit movement
	// (while traffic is in flight) after which the deadlock watchdog
	// fires. Much shorter than the network's last-resort watchdog, so a
	// checked run reports a deadlock with a dump long before the
	// unchecked one would give up.
	ProgressWindow int64 = 20_000
	// MaxPacketAge is the bound on cycles since a packet's first
	// injection; an in-flight packet older than this trips the livelock
	// watchdog (it is circulating or starved, not progressing).
	MaxPacketAge int64 = 200_000
)

// Violation is one failed check.
type Violation struct {
	Cycle int64
	Check string // "ledger", "credits", "watchdog"
	Msg   string
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d [%s] %s", v.Cycle, v.Check, v.Msg)
}

// Error is the fail-fast result of one or more violated invariants,
// carrying the diagnostic dump assembled by the network (conservation
// ledger, drop tallies, stuck-packet table, hard faults fired).
type Error struct {
	Violations []Violation
	Dump       string
}

// Error summarizes the first violation; the full dump is in Report.
func (e *Error) Error() string {
	if len(e.Violations) == 0 {
		return "invariant: violated"
	}
	extra := ""
	if len(e.Violations) > 1 {
		extra = fmt.Sprintf(" (+%d more)", len(e.Violations)-1)
	}
	return fmt.Sprintf("invariant: %s%s", e.Violations[0], extra)
}

// Report renders every violation followed by the diagnostic dump.
func (e *Error) Report() string {
	var b strings.Builder
	b.WriteString("invariant violation report\n")
	for _, v := range e.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	if e.Dump != "" {
		b.WriteString(e.Dump)
	}
	return b.String()
}

// Ledger is the packet-conservation account at one census. Injected,
// Delivered and Declared are counted at independent sites (injection,
// ejection, hard-fault declaration); InFlight is the network's running
// counter and Census the structural walk that must agree with it.
type Ledger struct {
	Injected  int64 // data packets ever handed to an NI
	Delivered int64 // data packets fully received and CRC-clean
	Declared  int64 // data packets declared undeliverable (unreachable/dead endpoint)
	InFlight  int64 // network's running outstanding-packet counter
	Census    int64 // outstanding packets found by walking source replay buffers
}

// Balanced reports whether the account closes: every injected packet is
// delivered, declared, or still in flight — and the in-flight counter
// matches the structural census.
func (l Ledger) Balanced() bool {
	return l.Injected == l.Delivered+l.Declared+l.InFlight && l.InFlight == l.Census
}

func (l Ledger) String() string {
	return fmt.Sprintf("injected=%d delivered=%d declared=%d in-flight=%d census=%d",
		l.Injected, l.Delivered, l.Declared, l.InFlight, l.Census)
}
