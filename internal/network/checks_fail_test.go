package network

// Failure-path coverage for the invariant layer (DESIGN.md §12). The
// green-path tests elsewhere prove checked runs complete identically;
// these prove the other half of the contract — when state actually
// violates an invariant, each probe fires, the error is a typed
// *invariant.Error naming the right check, and the report carries the
// diagnostic dump (ledger, drop tallies, stuck packets, event ring).

import (
	"errors"
	"strings"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/invariant"
	"rlnoc/internal/topology"
)

// checkedNet builds a small checked mesh.
func checkedNet(t *testing.T) *Network {
	t.Helper()
	cfg := testConfig(0)
	cfg.Checks = "all"
	return newNet(t, cfg, Mode1, true)
}

// asInvariantError fails unless err is a typed *invariant.Error whose
// first violation is for the named check and mentions wantMsg; it
// returns the error for further dump assertions.
func asInvariantError(t *testing.T, err error, check, wantMsg string) *invariant.Error {
	t.Helper()
	if err == nil {
		t.Fatalf("no error; want a %s violation", check)
	}
	var ierr *invariant.Error
	if !errors.As(err, &ierr) {
		t.Fatalf("error %T (%v) is not *invariant.Error", err, err)
	}
	if len(ierr.Violations) == 0 {
		t.Fatal("invariant.Error with no violations")
	}
	found := false
	for _, v := range ierr.Violations {
		if v.Check == check && strings.Contains(v.Msg, wantMsg) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no %q violation mentioning %q in %v", check, wantMsg, ierr.Violations)
	}
	if !strings.Contains(ierr.Error(), "invariant: ") {
		t.Errorf("Error() = %q, want the invariant: prefix", ierr.Error())
	}
	return ierr
}

// assertDump checks the report carries the shared diagnostic dump
// skeleton: the header, the conservation ledger and the drop tallies.
func assertDump(t *testing.T, ierr *invariant.Error) {
	t.Helper()
	rep := ierr.Report()
	for _, want := range []string{"invariant violation report", "injected=", "drops:"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	if ierr.Dump == "" {
		t.Error("invariant.Error carries no dump")
	}
}

// TestProgressStallWatchdog wedges the progress clock with traffic in
// flight: the deadlock watchdog must fire on the very next check with
// the in-flight counts in its message.
func TestProgressStallWatchdog(t *testing.T) {
	n := checkedNet(t)
	if pkt, err := n.NewDataPacket(0, 15, 4, 0); err != nil || pkt == nil {
		t.Fatalf("inject: (%v, %v)", pkt, err)
	}
	if err := n.Step(); err != nil {
		t.Fatal(err)
	}
	// Rewind the progress clock past the window; the probe runs every
	// cycle, so no CheckPeriod alignment is needed.
	stallCycle := n.cycle + 1
	n.lastProgress = stallCycle - invariant.ProgressWindow - 1
	ierr := asInvariantError(t, n.runChecks(stallCycle), "watchdog", "no forward progress")
	assertDump(t, ierr)
	if !strings.Contains(ierr.Report(), "oldest outstanding packets") {
		t.Errorf("stall report does not list the stuck packet:\n%s", ierr.Report())
	}
}

// TestCreditImbalanceChecks corrupts the credit account both ways — a
// leaked credit on a quiet channel and an over-depth balance — and
// expects the credits probe to localize each to the right port.
func TestCreditImbalanceChecks(t *testing.T) {
	n := checkedNet(t)
	p := n.routers[5].outputs[topology.East]

	p.credits[0]-- // quiet channel now accounts for depth-1: a leak
	ierr := asInvariantError(t, n.runChecks(invariant.CheckPeriod), "credits", "leak")
	assertDump(t, ierr)

	p.credits[0] += 3 // restores the leak, then exceeds the depth by 2
	ierr = asInvariantError(t, n.runChecks(invariant.CheckPeriod), "credits", "exceeds depth")
	assertDump(t, ierr)
	p.credits[0] -= 2
	if err := n.runChecks(invariant.CheckPeriod); err != nil {
		t.Fatalf("restored credits still flagged: %v", err)
	}
}

// TestAckChecks holds the ACK census to both sides. A Mode 0 mesh under
// load, checked every cycle, queues no ACK: its flits carry no
// retransmission entry to pop. One planted on a Mode 0 port — what the
// receiver would have raised for such a flit — names no entry, and the
// census reports it.
func TestAckChecks(t *testing.T) {
	cfg := testConfig(0)
	cfg.Checks = "all"
	n := newNet(t, cfg, Mode0, true)
	for src := 0; src < 4; src++ {
		if pkt, err := n.NewDataPacket(src, 15-src, 4, 0); err != nil || pkt == nil {
			t.Fatalf("inject: (%v, %v)", pkt, err)
		}
	}
	p := n.routers[0].outputs[topology.East]
	for !n.Drained() {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
		if err := n.runChecks(invariant.CheckPeriod); err != nil {
			t.Fatalf("cycle %d: %v", n.Cycle(), err)
		}
	}
	if p.mode != Mode0 || p.nextSeq == 0 {
		t.Fatalf("router 0 east: mode %v, %d flits sent; want Mode 0 traffic", p.mode, p.nextSeq)
	}

	p.acks = append(p.acks, wireAck{seq: p.nextSeq - 1, deliver: n.Cycle() + 1})
	ierr := asInvariantError(t, n.runChecks(invariant.CheckPeriod), "credits",
		"router 0 port east: queued ACK for seq")
	assertDump(t, ierr)
	p.acks = p.acks[:0]
	if err := n.runChecks(invariant.CheckPeriod); err != nil {
		t.Fatalf("cleared ACK queue still flagged: %v", err)
	}
}

// TestRequestMaskChecks flips one bit of each kind of derived pipeline
// state — a route mask, the VA-wait mask, each fill mask, then a
// wirePorts and an saAttn bit — under a routed, VC-holding resident and
// expects the census to localize each.
func TestRequestMaskChecks(t *testing.T) {
	n := checkedNet(t)
	if pkt, err := n.NewDataPacket(0, 15, 4, 0); err != nil || pkt == nil {
		t.Fatalf("inject: (%v, %v)", pkt, err)
	}
	r := n.routers[0]
	for r.routeMask[topology.East] == 0 || r.vaWait != 0 {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.runChecks(invariant.CheckPeriod); err != nil {
		t.Fatalf("consistent masks flagged: %v", err)
	}
	bit := r.routeMask[topology.East] & -r.routeMask[topology.East]

	r.routeMask[topology.East] &^= bit
	ierr := asInvariantError(t, n.runChecks(invariant.CheckPeriod), "credits", "router 0 port east: request mask")
	assertDump(t, ierr)
	r.routeMask[topology.East] |= bit

	r.vaWait |= bit
	asInvariantError(t, n.runChecks(invariant.CheckPeriod), "credits", "router 0: VA-wait mask")
	r.vaWait &^= bit

	for i := range r.fill {
		r.fill[i] ^= bit
		asInvariantError(t, n.runChecks(invariant.CheckPeriod), "credits", "router 0: fill register")
		r.fill[i] ^= bit
	}

	// The port summaries: step until the head is on the east wire (Mode 1
	// keeps its clean copy unacked), then ask for a mode switch the
	// channel cannot take yet. Both bits are now set for cause; a spurious
	// bit elsewhere is legal, a missing one is the violation.
	east := r.outputs[topology.East]
	for len(east.inflight) == 0 {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	n.applyMode(0, Mode2)
	portBit := uint8(1) << uint(topology.East)
	if !east.switchPending() || r.wirePorts&portBit == 0 || r.saAttn&portBit == 0 {
		t.Fatalf("east port: switch pending %v, wirePorts %05b, saAttn %05b; want both bits set",
			east.switchPending(), r.wirePorts, r.saAttn)
	}
	r.wirePorts |= 1 << uint(topology.West) // spurious: legal
	if err := n.runChecks(invariant.CheckPeriod); err != nil {
		t.Fatalf("consistent summaries flagged: %v", err)
	}

	r.wirePorts &^= portBit
	asInvariantError(t, n.runChecks(invariant.CheckPeriod), "credits", "router 0 port east: wire queues hold 1 flits")
	r.wirePorts |= portBit

	r.saAttn &^= portBit
	asInvariantError(t, n.runChecks(invariant.CheckPeriod), "credits", "router 0 port east: resend cursor -1, mode mode1-ecc -> mode2-preretx pending")
	r.saAttn |= portBit

	if err := n.runChecks(invariant.CheckPeriod); err != nil {
		t.Fatalf("restored masks still flagged: %v", err)
	}
}

// TestPacketAgeWatchdog ages an outstanding packet past MaxPacketAge and
// expects the livelock watchdog to name it, with the packet visible in
// the dump's stuck-packet table.
func TestPacketAgeWatchdog(t *testing.T) {
	n := checkedNet(t)
	pkt, err := n.NewDataPacket(0, 15, 4, 0)
	if err != nil || pkt == nil {
		t.Fatalf("inject: (%v, %v)", pkt, err)
	}
	census := (invariant.MaxPacketAge/invariant.CheckPeriod + 2) * invariant.CheckPeriod
	n.lastProgress = census // keep the progress watchdog quiet; age only
	ierr := asInvariantError(t, n.runChecks(census), "watchdog", "outstanding for")
	assertDump(t, ierr)
	if !strings.Contains(ierr.Report(), "pkt 1 0->15") {
		t.Errorf("dump does not table the aged packet:\n%s", ierr.Report())
	}
}

// TestHopOverflowWatchdog forges a packet path through more than eight
// times the fabric's routers — the signature of a routing loop — and
// expects the hop-bound watchdog.
func TestHopOverflowWatchdog(t *testing.T) {
	n := checkedNet(t)
	pkt, err := n.NewDataPacket(0, 15, 4, 0)
	if err != nil || pkt == nil {
		t.Fatalf("inject: (%v, %v)", pkt, err)
	}
	for len(pkt.Path) <= 8*len(n.routers) {
		pkt.Path = append(pkt.Path, 0)
	}
	n.lastProgress = invariant.CheckPeriod
	ierr := asInvariantError(t, n.runChecks(invariant.CheckPeriod), "watchdog", "routing loop")
	assertDump(t, ierr)
}

// TestLedgerImbalanceChecks breaks the conservation account on both
// sides — the packet census and the control-packet live set — and
// expects the ledger probe to print the failing account.
func TestLedgerImbalanceChecks(t *testing.T) {
	n := checkedNet(t)
	n.lastProgress = invariant.CheckPeriod

	n.totalInjected++ // phantom packet: account no longer closes
	ierr := asInvariantError(t, n.runChecks(invariant.CheckPeriod), "ledger", "packet account does not close")
	assertDump(t, ierr)
	n.totalInjected--

	n.ctrlInFlight++ // counter drifts from the live control set
	ierr = asInvariantError(t, n.runChecks(invariant.CheckPeriod), "ledger", "control census mismatch")
	assertDump(t, ierr)
	n.ctrlInFlight--
	if err := n.runChecks(invariant.CheckPeriod); err != nil {
		t.Fatalf("restored accounts still flagged: %v", err)
	}
}

// TestDumpNamesFiredFaults drives a real hard fault and then forces a
// violation: the report must name the kill that fired.
func TestDumpNamesFiredFaults(t *testing.T) {
	cfg := testConfig(0)
	cfg.Checks = "all"
	cfg.HardFaults = "2:l5.east"
	n := newNet(t, cfg, Mode1, true)
	for n.Cycle() < 4 { // fire the kill
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	n.totalInjected++ // force a ledger violation to get a report
	census := invariant.CheckPeriod
	n.lastProgress = census
	ierr := asInvariantError(t, n.runChecks(census), "ledger", "packet account does not close")
	rep := ierr.Report()
	if !strings.Contains(rep, "hard faults fired: 2:l5.east\n") {
		t.Errorf("report does not name the fired kill:\n%s", rep)
	}
}

// TestCheckedStepSurfacesTypedError closes the loop end-to-end: a
// violation introduced between cycles must surface from Network.Step
// itself as a typed *invariant.Error, not just from the probe helper.
func TestCheckedStepSurfacesTypedError(t *testing.T) {
	n := checkedNet(t)
	if pkt, err := n.NewDataPacket(0, 15, 4, 0); err != nil || pkt == nil {
		t.Fatalf("inject: (%v, %v)", pkt, err)
	}
	// Steal a credit so the next census-aligned Step fails.
	n.routers[5].outputs[topology.East].credits[0]--
	var got error
	for n.Cycle() < 2*invariant.CheckPeriod {
		if err := n.Step(); err != nil {
			got = err
			break
		}
	}
	ierr := asInvariantError(t, got, "credits", "")
	assertDump(t, ierr)
}

// TestUncheckedConfigSkipsProbes pins that the default configuration
// runs with every probe off (the zero-cost contract's policy side).
func TestUncheckedConfigSkipsProbes(t *testing.T) {
	t.Setenv(config.EnvChecks, "") // the suite also runs under RLNOC_CHECKS=all
	cfg := testConfig(0)
	n := newNet(t, cfg, Mode1, true)
	if n.checks {
		t.Fatal("default config has checks on")
	}
	// A blatant imbalance must go unreported when checks are off: Step
	// never consults the probes (runChecks is unreachable).
	n.totalInjected += 5
	for n.Cycle() < 2048 {
		if err := n.Step(); err != nil {
			t.Fatalf("disabled checks still fired: %v", err)
		}
	}
}

var _ = config.Config{} // keep the import pinned for helper evolution
