package network

// Event-horizon fast-forward (DESIGN.md §16).
//
// A Step on a quiescent network — all three active sets empty and no
// flit in flight — mutates exactly one piece of state: the cycle
// counter. Everything else is event-driven or boundary-driven:
//
//   - Leakage/idle energy is charged per thermal window by
//     thermalStep's AddStaticCyclesAt, never per cycle, so idle cycles
//     between boundaries accrue nothing.
//   - detrand streams rekey lazily on the first draw of a cycle; an
//     idle cycle draws nothing, so there is no RNG cursor to advance.
//   - Stats, meters, the conservation ledger and the recovery log all
//     accrue on flit/packet events or at epoch boundaries.
//   - ARQ and E2E retransmissions are NACK-driven (no timers): with
//     nothing in flight there is no deadline to expire. The invariant
//     watchdog is gated on !Drained(), so it cannot fire either.
//
// The loop can therefore jump the counter across an idle stretch and
// remain byte-identical to per-cycle stepping, provided no cycle on
// which a Step would have done non-idle work is skipped. Those cycles
// are exactly the internal-event horizon computed below (thermal and
// control-epoch boundaries, invariant census boundaries, pending hard
// faults) plus the caller-side horizon (next injection, warm-up edge,
// observer/snapshot boundaries, cycle cap), which core's one cycle loop
// (Sim.drive) folds in before calling FastForwardTo.

// Quiescent reports whether a Step would change no state other than
// the cycle counter: nothing in flight and every active set empty.
// The condemned-packet map is deliberately not part of the predicate —
// hard-fault kill/reroute/sweep/resolution completes synchronously
// inside applyHardFaults, and surviving condemned entries are consulted
// only when a flit event touches them, never per cycle. The dense
// referee path never prunes its sets, so it reports non-quiescent and
// fast-forward disables itself there.
func (n *Network) Quiescent() bool {
	if n.dense {
		return false
	}
	return n.Drained() &&
		n.wireActive.empty() && n.niActive.empty() && n.pipeActive.empty()
}

// NextBoundary returns the smallest multiple of period strictly greater
// than cycle: the boundary arithmetic of this horizon and of the
// caller-side one.
func NextBoundary(cycle, period int64) int64 {
	return cycle - cycle%period + period
}

// NextInternalEventCycle returns the next cycle at which a Step would do
// work on a quiescent network: the nearest thermal window or control
// epoch boundary, the nearest invariant census boundary when checks are
// armed (the walks are observational, but an error they would raise must
// surface on the same cycle as per-cycle stepping), or a pending hard
// fault, whichever comes first.
func (n *Network) NextInternalEventCycle() int64 {
	c := n.cycle
	next := NextBoundary(c, int64(n.cfg.Thermal.UpdatePeriod))
	if b := NextBoundary(c, int64(n.cfg.RL.StepCycles)); b < next {
		next = b
	}
	if n.checks.Enabled() {
		if b := NextBoundary(c, n.thresh.CheckPeriod); b < next {
			next = b
		}
	}
	if n.hardIdx < len(n.hardSched) {
		if k := n.hardSched[n.hardIdx].Cycle; k < next {
			if k <= c {
				// Overdue entry (possible only before the first Step):
				// the very next Step applies it.
				return c + 1
			}
			next = k
		}
	}
	return next
}

// FastForwardTo advances the cycle counter toward target without
// stepping, clamped one cycle short of the next internal event so that
// cycle is reached through a normal Step. It is a no-op unless the
// network is quiescent. Returns the cycle actually reached.
func (n *Network) FastForwardTo(target int64) int64 {
	if !n.Quiescent() {
		return n.cycle
	}
	if clamp := n.NextInternalEventCycle() - 1; clamp < target {
		target = clamp
	}
	if target > n.cycle {
		n.cycle = target
	}
	return n.cycle
}
