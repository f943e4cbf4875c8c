package network

// Runtime invariant checks (DESIGN.md §12). The check *policy* — which
// checks run, their bounds, violation/report types — lives in
// internal/invariant; this file owns the probes, because only the
// network can walk its own buffers. Everything here is observational:
// no simulation state is mutated, so a checked run either completes
// identically to an unchecked one or fails fast with a report.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"rlnoc/internal/fault"
	"rlnoc/internal/flit"
	"rlnoc/internal/invariant"
	"rlnoc/internal/stats"
	"rlnoc/internal/topology"
)

// ConservationLedger assembles the packet-conservation account: every
// data packet ever injected must be delivered, declared undeliverable,
// or still in flight — and the running in-flight counter must agree
// with a structural census of the source replay buffers.
func (n *Network) ConservationLedger() invariant.Ledger {
	var census int64
	for _, ni := range n.nis {
		census += int64(len(ni.replay))
	}
	return invariant.Ledger{
		Injected:  n.totalInjected,
		Delivered: n.totalDelivered,
		Declared:  n.totalDeclared,
		InFlight:  int64(n.dataInFlight),
		Census:    census,
	}
}

// runChecks executes every invariant probe due this cycle. The
// progress watchdog is O(1) and runs every cycle; the ledger, credit and
// packet-bound walks are O(network) and amortized over CheckPeriod.
func (n *Network) runChecks(cycle int64) error {
	var viols []invariant.Violation
	if !n.Drained() && cycle-n.lastProgress > invariant.ProgressWindow {
		viols = append(viols, invariant.Violation{Cycle: cycle, Check: "watchdog",
			Msg: fmt.Sprintf("no forward progress for %d cycles (%d data, %d ctrl in flight)",
				cycle-n.lastProgress, n.dataInFlight, n.ctrlInFlight)})
	}
	if cycle%invariant.CheckPeriod == 0 {
		if l := n.ConservationLedger(); !l.Balanced() {
			viols = append(viols, invariant.Violation{Cycle: cycle, Check: "ledger",
				Msg: "packet account does not close: " + l.String()})
		}
		if n.ctrlInFlight != len(n.ctrlLive) {
			viols = append(viols, invariant.Violation{Cycle: cycle, Check: "ledger",
				Msg: fmt.Sprintf("control census mismatch: counter %d, live set %d",
					n.ctrlInFlight, len(n.ctrlLive))})
		}
		viols = n.checkCredits(cycle, viols)
		viols = n.checkRequestMasks(cycle, viols)
		viols = n.checkFill(cycle, viols)
		viols = n.checkAcks(cycle, viols)
		viols = n.checkPacketBounds(cycle, viols)
	}
	if len(viols) == 0 {
		return nil
	}
	return &invariant.Error{Violations: viols, Dump: n.diagnosticDump(cycle)}
}

// checkCredits verifies per-VC credit balance on every live channel:
// credits held upstream, flits buffered downstream and credits on the
// return wire never exceed the VC depth, and account for exactly the
// depth whenever the channel's forward traffic has drained.
func (n *Network) checkCredits(cycle int64, viols []invariant.Violation) []invariant.Violation {
	for id, r := range n.routers {
		if n.isDeadRouter(id) {
			continue
		}
		for dir := topology.North; dir < topology.NumPorts; dir++ {
			p := r.outputs[dir]
			if !p.hasDownstream() { // unwired or dead
				continue
			}
			dr := n.routers[p.downstream]
			quiet := len(p.inflight) == 0 && len(p.unacked) == 0 && p.resendIdx < 0
			for vc := range int(p.vcs) {
				sum := int(p.credits[vc]) + int(dr.vc(p.inPort, vc).n)
				for _, c := range p.credRet {
					if c.vc == vc {
						sum++
					}
				}
				switch {
				case sum > n.cfg.VCDepth:
					viols = append(viols, invariant.Violation{Cycle: cycle, Check: "credits",
						Msg: fmt.Sprintf("router %d port %v vc %d: credits %d + occupancy + returns = %d exceeds depth %d",
							id, dir, vc, p.credits[vc], sum, n.cfg.VCDepth)})
				case quiet && sum != n.cfg.VCDepth:
					viols = append(viols, invariant.Violation{Cycle: cycle, Check: "credits",
						Msg: fmt.Sprintf("router %d port %v vc %d: quiet channel accounts for %d of %d credits (leak)",
							id, dir, vc, sum, n.cfg.VCDepth)})
				}
			}
		}
	}
	return viols
}

// checkRequestMasks recomputes every router's request masks from the VC
// state they are derived from (DESIGN.md §18) and reports any disagreement with the
// incrementally maintained copies: a stale bit would silently hide a VC
// from, or wrongly offer it to, the RC/VA/SA walks. The port summaries
// (§20) are held to the state they summarize in the same pass.
func (n *Network) checkRequestMasks(cycle int64, viols []invariant.Violation) []invariant.Violation {
	for id, r := range n.routers {
		route, vaWait := r.requestMasks()
		for out := range route {
			if route[out] != r.routeMask[out] {
				viols = append(viols, invariant.Violation{Cycle: cycle, Check: "credits",
					Msg: fmt.Sprintf("router %d port %v: request mask %#x, VC route state gives %#x",
						id, topology.Direction(out), r.routeMask[out], route[out])})
			}
		}
		if vaWait != r.vaWait {
			viols = append(viols, invariant.Violation{Cycle: cycle, Check: "credits",
				Msg: fmt.Sprintf("router %d: VA-wait mask %#x, VC route state gives %#x", id, r.vaWait, vaWait)})
		}
		for _, p := range r.outputs {
			// The port summaries (DESIGN.md §20) are supersets: a spurious
			// bit is a no-op port visit, a missing one hides queued work
			// from the wire or SA walk.
			bit := uint8(1) << uint(p.dir)
			if p.wireQueued() && r.wirePorts&bit == 0 {
				viols = append(viols, invariant.Violation{Cycle: cycle, Check: "credits",
					Msg: fmt.Sprintf("router %d port %v: wire queues hold %d flits, %d acks, %d credits but the wirePorts bit is clear",
						id, p.dir, len(p.inflight), len(p.acks), len(p.credRet))})
			}
			if p.saPending() && r.saAttn&bit == 0 {
				viols = append(viols, invariant.Violation{Cycle: cycle, Check: "credits",
					Msg: fmt.Sprintf("router %d port %v: resend cursor %d, mode %v -> %v pending, but the saAttn bit is clear",
						id, p.dir, p.resendIdx, p.mode, p.targetMode)})
			}
		}
	}
	return viols
}

// checkFill holds every router's fill register (DESIGN.md §18) to the
// buffered fronts it is derived from: between cycles its first mask is
// empty and its second names exactly the occupied slots whose front
// entered its buffer in the cycle just stepped (the network clock, which
// a probe test may report under another cycle). A missing bit lets SA
// grant a flit still in the RC/VA stages; a stale one withholds a ready
// flit.
func (n *Network) checkFill(cycle int64, viols []invariant.Violation) []invariant.Violation {
	for id, r := range n.routers {
		if want := r.fillMask(n.cycle); r.fill != [2]uint64{0, want} {
			viols = append(viols, invariant.Violation{Cycle: cycle, Check: "credits",
				Msg: fmt.Sprintf("router %d: fill register %#x/%#x, buffered fronts give 0/%#x",
					id, r.fill[0], r.fill[1], want)})
		}
	}
	return viols
}

// checkAcks verifies that every ACK or NACK queued on a live channel
// names a sequence number its retransmission buffer still holds. An ACK
// for a flit sent with ECC off would pop nothing, so the receiver raises
// none (receiveOnLink); a queued one naming no entry is wasted work, or a
// lost one.
func (n *Network) checkAcks(cycle int64, viols []invariant.Violation) []invariant.Violation {
	for id, r := range n.routers {
		if n.isDeadRouter(id) {
			continue
		}
		for dir := topology.North; dir < topology.NumPorts; dir++ {
			p := r.outputs[dir]
			if !p.hasDownstream() { // unwired or dead
				continue
			}
			for _, a := range p.acks {
				// unacked is in ascending sequence order.
				if _, held := slices.BinarySearchFunc(p.unacked, a.seq, func(e txEntry, seq uint64) int {
					return cmp.Compare(e.seq, seq)
				}); held {
					continue
				}
				kind := "ACK"
				if a.nack {
					kind = "NACK"
				}
				viols = append(viols, invariant.Violation{Cycle: cycle, Check: "credits",
					Msg: fmt.Sprintf("router %d port %v: queued %s for seq %d names no entry of the %d in the retransmission buffer",
						id, dir, kind, a.seq, len(p.unacked))})
			}
		}
	}
	return viols
}

// checkPacketBounds enforces per-packet age and hop limits over the live
// replay buffers — the livelock side of the watchdog: a packet older
// than MaxPacketAge is circulating or starved, and a path through more
// than eight times the fabric's routers proves a routing loop.
func (n *Network) checkPacketBounds(cycle int64, viols []invariant.Violation) []invariant.Violation {
	maxHops := 8 * len(n.routers)
	ids := make([]uint64, 0, 16)
	for id, ni := range n.nis {
		if n.isDeadRouter(id) {
			continue
		}
		ids = ids[:0]
		for pid := range ni.replay {
			ids = append(ids, pid)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, pid := range ids {
			pkt := ni.replay[pid]
			base := pkt.FirstInjectedAt
			if base < 0 {
				base = pkt.CreatedAt
			}
			if age := cycle - base; age > invariant.MaxPacketAge {
				viols = append(viols, invariant.Violation{Cycle: cycle, Check: "watchdog",
					Msg: fmt.Sprintf("packet %d (%d->%d) outstanding for %d cycles, bound %d (attempt %d)",
						pkt.ID, pkt.Src, pkt.Dst, age, invariant.MaxPacketAge, pkt.Retransmissions)})
			}
			if len(pkt.Path) > maxHops {
				viols = append(viols, invariant.Violation{Cycle: cycle, Check: "watchdog",
					Msg: fmt.Sprintf("packet %d (%d->%d) visited %d routers, bound %d: routing loop",
						pkt.ID, pkt.Src, pkt.Dst, len(pkt.Path), maxHops)})
			}
		}
	}
	return viols
}

// diagnosticDump snapshots the network for an invariant failure report:
// the conservation ledger, drop and fault tallies, the oldest stuck
// packets and the hard faults fired so far.
func (n *Network) diagnosticDump(cycle int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d: %s\n", cycle, n.ConservationLedger())
	fmt.Fprintf(&b, "dead routers %d, unreachable pairs %d, ctrl in flight %d\n",
		n.DeadRouters(), n.unreachablePairs, n.ctrlInFlight)
	b.WriteString("drops:")
	counts := n.stats.DropCounts()
	for r := stats.DropReason(0); r < stats.NumDropReasons; r++ {
		fmt.Fprintf(&b, " %s=%d", r, counts[r])
	}
	b.WriteString("\n")
	type stuck struct {
		pkt *flit.Packet
		age int64
	}
	var oldest []stuck
	for id, ni := range n.nis {
		if n.isDeadRouter(id) {
			continue
		}
		for _, pkt := range ni.replay {
			base := pkt.FirstInjectedAt
			if base < 0 {
				base = pkt.CreatedAt
			}
			oldest = append(oldest, stuck{pkt: pkt, age: cycle - base})
		}
	}
	sort.Slice(oldest, func(i, j int) bool {
		if oldest[i].age != oldest[j].age {
			return oldest[i].age > oldest[j].age
		}
		return oldest[i].pkt.ID < oldest[j].pkt.ID
	})
	if len(oldest) > 10 {
		oldest = oldest[:10]
	}
	if len(oldest) > 0 {
		b.WriteString("oldest outstanding packets:\n")
		for _, s := range oldest {
			p := s.pkt
			fmt.Fprintf(&b, "  pkt %d %d->%d age %d attempt %d hops %d\n",
				p.ID, p.Src, p.Dst, s.age, p.Retransmissions, len(p.Path))
		}
	}
	if n.hardIdx > 0 {
		fmt.Fprintf(&b, "hard faults fired: %s\n", fault.FormatSchedule(n.hardSched[:n.hardIdx]))
	}
	return b.String()
}
