package network

// Hard-fault injection and graceful degradation (DESIGN.md §12).
//
// A hard fault permanently removes a link (both directions) or a whole
// router. applyHardFaults runs at the top of Step, before any phase, so
// the two stepping paths (dense, active-set) see identical post-fault
// state. The machinery has four parts:
//
//  1. kill: mark ports dead, discard the flits that were physically on
//     the dying hardware (wires, retransmission buffers, router buffers).
//  2. reroute: rebuild the fabric's route table and qroute's distances
//     around the surviving edges (reroute, the one site) and count
//     unreachable pairs.
//  3. sweep: condemn every packet attempt that lost flits or whose
//     endpoints died or disconnected, and purge the condemned residents
//     out of live routers' buffers.
//  4. resolve: per condemned packet, either declare it undeliverable
//     (dead or unreachable endpoint) or force a source retransmission.
//
// Stragglers of a condemned attempt still on live wires are NOT removed:
// silently deleting a wire flit would wedge the downstream go-back-N
// screen (expectSeq never advances and no NACK is ever raised for a flit
// that simply vanished). Instead they complete their ARQ accept upstream
// and are poison-dropped at accept or eject — identified by Flit.Attempt
// no newer than the condemned attempt — while the source's fresh
// retransmission carries a higher Attempt and passes untouched.

import (
	"sort"

	"rlnoc/internal/eventlog"
	"rlnoc/internal/fault"
	"rlnoc/internal/flit"
	"rlnoc/internal/stats"
	"rlnoc/internal/topology"
)

// condemnedRec is one packet touched by this cycle's hard faults, with
// the strongest resolution requested for it (declare beats retransmit).
type condemnedRec struct {
	pkt     *flit.Packet
	reason  stats.DropReason
	declare bool
}

// faultSweep accumulates the packets condemned while applying one
// cycle's batch of hard faults, deduplicated by packet ID.
type faultSweep struct {
	affected []condemnedRec
	index    map[uint64]int
}

// isDeadRouter reports whether a router was removed by a hard fault.
func (n *Network) isDeadRouter(id int) bool {
	return n.deadRouter != nil && n.deadRouter[id]
}

// UnreachablePairs returns the number of ordered (src, dst) pairs the
// last reroute left without a surviving path.
func (n *Network) UnreachablePairs() int { return n.unreachablePairs }

// DeadRouters counts routers removed by hard faults.
func (n *Network) DeadRouters() int {
	count := 0
	for _, d := range n.deadRouter {
		if d {
			count++
		}
	}
	return count
}

// recordFault notes a hard-fault event on the event log (nil-safe).
func (n *Network) recordFault(router int, aux int64) {
	n.elog.Record(eventlog.Event{Cycle: n.cycle, Kind: eventlog.KHardFault, Router: router, Aux: aux})
}

// recordDrop notes a discard on the event log (nil-safe).
func (n *Network) recordDrop(router int, pkt uint64, reason stats.DropReason) {
	n.elog.Record(eventlog.Event{Cycle: n.cycle, Kind: eventlog.KDrop, Router: router,
		Packet: pkt, Aux: int64(reason)})
}

// dropFlit counts, logs and retires one discarded flit.
func (n *Network) dropFlit(f *flit.Flit, r *Router, reason stats.DropReason) {
	n.stats.Drop(reason)
	n.recordDrop(r.id, f.PacketID, reason)
	n.fpool.Put(f)
}

// poisoned reports whether a flit belongs to a condemned attempt and
// must be discarded instead of entering a buffer or NI. The nil check
// keeps the fault-free hot path at a single comparison.
func (n *Network) poisoned(f *flit.Flit) bool {
	if n.condemned == nil {
		return false
	}
	att, ok := n.condemned[f.PacketID]
	return ok && f.Attempt <= att
}

// condemnPkt marks attempt of pkt as condemned and records it in the
// sweep. Re-condemning with a higher attempt (a fresh retransmission
// became a casualty of a later kill) raises the poison threshold; a
// declare request upgrades an existing retransmit-only record.
func (n *Network) condemnPkt(sw *faultSweep, pkt *flit.Packet, attempt int32, reason stats.DropReason, declare bool) {
	if n.condemned == nil {
		n.condemned = make(map[uint64]int32)
	}
	if cur, ok := n.condemned[pkt.ID]; !ok || attempt > cur {
		n.condemned[pkt.ID] = attempt
	}
	if i, ok := sw.index[pkt.ID]; ok {
		if declare && !sw.affected[i].declare {
			sw.affected[i].declare = true
			sw.affected[i].reason = reason
		}
		return
	}
	sw.index[pkt.ID] = len(sw.affected)
	sw.affected = append(sw.affected, condemnedRec{pkt: pkt, reason: reason, declare: declare})
}

// condemnFlit condemns the attempt a casualty flit belongs to. An
// attempt already condemned at or above this flit's is left alone (its
// resolution was recorded when it was first condemned). A casualty whose
// packet already settled (delivered, declared, or cancelled — and hence
// recycled) needs no condemnation: it was a straggler copy the ARQ
// sequence screen would have dropped anyway, so it is simply discarded
// by the caller.
func (n *Network) condemnFlit(sw *faultSweep, f *flit.Flit, reason stats.DropReason) {
	if n.condemned != nil {
		if cur, ok := n.condemned[f.PacketID]; ok && f.Attempt <= cur {
			return
		}
	}
	pkt := n.livePacket(f)
	if pkt == nil {
		return
	}
	n.condemnPkt(sw, pkt, f.Attempt, reason, false)
}

// livePacket resolves a flit's packet through the authoritative liveness
// table for its kind — the source replay buffer for data, the in-flight
// control ledger for NACKs — rather than the flit's Packet pointer, which
// may dangle into the packet pool once the packet settles. Returns nil
// for flits of settled packets.
func (n *Network) livePacket(f *flit.Flit) *flit.Packet {
	if f.Kind == flit.NackE2E {
		return n.ctrlLive[f.PacketID]
	}
	return n.nis[int(f.Src)].replay[f.PacketID]
}

// residentOf identifies the packet occupying an input VC: the front
// flit's when the buffer is non-empty, else the recorded owner of an
// empty-but-still-routed VC. A routed VC always holds the packet's
// newest attempt (older attempts are poisoned before they can enter a
// buffer), so the owner's current Retransmissions names the attempt.
func residentOf(r *Router, vc *inputVC) (*flit.Packet, int32) {
	if front := vc.front(r); front != nil {
		return front.Packet, front.Attempt
	}
	if vc.routed && vc.pkt != nil {
		return vc.pkt, int32(vc.pkt.Retransmissions)
	}
	return nil, 0
}

// removePacket deletes pkt from a queue by identity, compacting in place.
func removePacket(q []*flit.Packet, pkt *flit.Packet) []*flit.Packet {
	for i, p := range q {
		if p == pkt {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			return q[:len(q)-1]
		}
	}
	return q
}

// applyHardFaults executes every schedule entry due at the current
// cycle, then reroutes, sweeps and resolves. Called from Step before any
// phase runs.
func (n *Network) applyHardFaults() {
	sw := &faultSweep{index: make(map[uint64]int)}
	changed := false
	for n.hardIdx < len(n.hardSched) && n.hardSched[n.hardIdx].Cycle <= n.cycle {
		h := n.hardSched[n.hardIdx]
		n.hardIdx++
		switch h.Kind {
		case fault.KillLink:
			if n.killLink(h.Router, h.Dir, sw) {
				changed = true
			}
		case fault.KillRouter:
			if n.killRouter(h.Router, sw) {
				changed = true
			}
		}
	}
	if !changed {
		return
	}
	n.hardFaulted = true
	n.unreachablePairs = n.reroute()
	if n.recov != nil {
		n.recov.RecordKill(n.cycle)
	}
	n.sweepAfterFaults(sw)
	n.resolveCondemned(sw)
}

// portDead reports whether router id's output port d is dead: the one
// dead-link predicate the fabric's surviving-link BFS reads.
func (n *Network) portDead(id int, d topology.Direction) bool { return n.routers[id].outputs[d].dead }

// reroute is the one reroute site: it rebuilds the route table around the
// dead ports, refreshes qroute's surviving distances from the same BFS,
// and returns the number of ordered pairs left unreachable.
func (n *Network) reroute() int {
	pairs := n.topo.Reroute(n.portDead)
	n.fillSurvivingDist()
	return pairs
}

// fillSurvivingDist fills qroute's distance matrix, one fabric BFS per
// destination, under the current dead ports; a no-op without qroute. It
// reads only the fabric's adjacency, so filling a healthy network's
// matrix never clones the shared route table.
func (n *Network) fillSurvivingDist() {
	q := n.qr
	if q == nil {
		return
	}
	dead := n.portDead
	var queue []int32
	for dst := 0; dst < q.nodes; dst++ {
		queue = n.topo.SurvivingDistances(dst, dead, q.dist[dst*q.nodes:(dst+1)*q.nodes], queue)
	}
}

// killLink severs the link from router id through dir, both directions.
// Reports whether anything actually died (an already-dead or unwired
// target is a no-op, so randomized chaos schedules never double-kill).
func (n *Network) killLink(id int, dir topology.Direction, sw *faultSweep) bool {
	p := n.routers[id].outputs[dir]
	if p.dead || !p.hasDownstream() {
		return false
	}
	nbr := p.downstream
	n.recordFault(id, 0)
	n.killPort(n.routers[id], p, stats.DropKilledLink, sw)
	q := n.routers[nbr].outputs[dir.Opposite()]
	if !q.dead && q.hasDownstream() {
		n.killPort(n.routers[nbr], q, stats.DropKilledLink, sw)
	}
	return true
}

// killPort retires one output channel: every flit on the wire or parked
// in the retransmission buffer is a casualty (condemned and dropped),
// the reverse wires are cleared, and the port is marked dead so no
// pipeline stage or credit-return site touches it again. Cancelling any
// pending resend and mode switch takes the port out of saAttn, which keeps
// pipeQuiet reachable for the owning router. Emptying the retransmission
// buffer can complete a VC release's condition with no ACK to announce
// it, so a live router's port frees those VCs here; a dead router's ports
// are never visited again, and their VCs stay as they were.
func (n *Network) killPort(r *Router, p *outputPort, reason stats.DropReason, sw *faultSweep) {
	for i := range p.inflight {
		f := p.inflight[i].f
		n.condemnFlit(sw, f, reason)
		n.dropFlit(f, r, reason)
		p.inflight[i] = wireFlit{}
	}
	p.inflight = p.inflight[:0]
	for i := range p.unacked {
		f := p.unacked[i].f
		n.condemnFlit(sw, f, reason)
		n.dropFlit(f, r, reason)
		p.unacked[i] = txEntry{}
	}
	p.unacked = p.unacked[:0]
	p.acks = p.acks[:0]
	p.credRet = p.credRet[:0]
	p.resendIdx = -1
	p.targetMode = p.mode
	r.saAttn &^= 1 << uint(p.dir)
	p.dead = true
	p.downstream = -1
	if !n.isDeadRouter(r.id) {
		n.releaseVCs(p)
	}
}

// killRouter removes a router, its NI and every incident link. Reports
// whether the router was alive.
func (n *Network) killRouter(id int, sw *faultSweep) bool {
	if n.isDeadRouter(id) {
		return false
	}
	if n.deadRouter == nil {
		n.deadRouter = make([]bool, n.topo.Nodes())
	}
	n.deadRouter[id] = true
	n.recordFault(id, 1)
	r := n.routers[id]
	// Neighbors' channels into the dead router die first, so the purges
	// below see them dead and never append credit returns to them.
	for d := topology.North; d < topology.NumPorts; d++ {
		if nbr, ok := n.topo.Neighbor(id, d); ok {
			q := n.routers[nbr].outputs[d.Opposite()]
			if !q.dead && q.hasDownstream() {
				n.killPort(n.routers[nbr], q, stats.DropDeadRouter, sw)
			}
		}
	}
	// The router's own channels, Local included: ejections in flight to
	// its NI die with it.
	for d := topology.Direction(0); d < topology.NumPorts; d++ {
		if p := r.outputs[d]; !p.dead {
			n.killPort(r, p, stats.DropDeadRouter, sw)
		}
	}
	// Buffered flits inside the router are casualties too.
	for i := range r.vcs {
		vc := &r.vcs[i]
		if pkt, attempt := residentOf(r, vc); pkt != nil {
			n.condemnPkt(sw, pkt, attempt, stats.DropDeadRouter, false)
		}
		n.purgeVC(r, vc, stats.DropDeadRouter)
	}
	// No SA visit will shift the fill register again; with every buffer
	// empty it holds nothing.
	r.fill = [2]uint64{}
	// NI teardown. Every packet this node sourced is condemned for
	// declaration (its replay home is gone); map iteration goes through a
	// sorted key list so the sweep order is deterministic.
	ni := n.nis[id]
	ids := make([]uint64, 0, len(ni.replay))
	for pid := range ni.replay {
		ids = append(ids, pid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, pid := range ids {
		pkt := ni.replay[pid]
		n.condemnPkt(sw, pkt, int32(pkt.Retransmissions), stats.DropDeadRouter, true)
	}
	for _, c := range ni.ctrlQueue {
		n.condemnPkt(sw, c, 0, stats.DropDeadRouter, false)
	}
	if ni.curCtrl.pkt != nil {
		n.condemnPkt(sw, ni.curCtrl.pkt, 0, stats.DropDeadRouter, false)
	}
	for i := range ni.dataQueue {
		ni.dataQueue[i] = nil
	}
	ni.dataQueue = ni.dataQueue[:0]
	for i := range ni.ctrlQueue {
		ni.ctrlQueue[i] = nil
	}
	ni.ctrlQueue = ni.ctrlQueue[:0]
	ni.curData = txState{}
	ni.curCtrl = txState{}
	for i := range ni.localVCBusy {
		ni.localVCBusy[i] = false
	}
	// Partially reassembled packets at the dead destination are gone;
	// their sources get declared by the replay teardown above (if local)
	// or by the endpoint sweep (if remote).
	rids := ids[:0]
	for pid := range ni.reasm {
		rids = append(rids, pid)
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i] < rids[j] })
	for _, pid := range rids {
		for _, f := range ni.reasm[pid] {
			n.dropFlit(f, r, stats.DropDeadRouter)
		}
		delete(ni.reasm, pid)
	}
	n.wireActive.remove(id)
	n.niActive.remove(id)
	n.pipeActive.remove(id)
	return true
}

// purgeVC empties one input VC, returning a credit per dropped flit to
// the upstream channel (unless that channel died) and releasing the
// VC's downstream allocation so the fabric's VC inventory never leaks:
// at once if the downstream VC has drained, else when it does.
func (n *Network) purgeVC(r *Router, vc *inputVC, reason stats.DropReason) {
	port := r.portOf(vc.slot)
	for !vc.empty() {
		f := vc.pop(r)
		n.returnCredit(r.up[port], f.VC)
		n.dropFlit(f, r, reason)
	}
	if port == topology.Local {
		n.nis[r.id].releaseLocalVC(int(vc.slot)) // Local slots are the VC indices
	}
	if vc.routed && vc.outVC >= 0 {
		if op := r.outputs[vc.outPort]; !op.dead && op.vcs > 0 {
			// The tail will never pass; schedule the downstream VC free
			// the way grantAndSend would have. The credit or ACK that
			// completes its condition frees it; if both are home already,
			// no wire event will come, so it is freed here.
			op.vcPendingFree |= 1 << uint(vc.outVC)
			op.freeIfDrained(int(vc.outVC), n.cfg.VCDepth)
		}
	}
	vc.unroute(r)
}

// sweepAfterFaults walks the surviving fabric after reroute and condemns
// every attempt the faults doomed: streams cut by a dead channel,
// traffic whose destination died or disconnected, and sourced packets
// whose endpoints are gone. It then purges condemned residents out of
// live buffers. Order is strictly index-ascending for determinism.
func (n *Network) sweepAfterFaults(sw *faultSweep) {
	// Pass 1: condemn by position. A VC routed into a dead channel, or
	// holding traffic that can no longer reach its destination, names a
	// doomed attempt; so does any flit on a live wire (or parked in a
	// retransmission buffer) heading somewhere unreachable.
	for id, r := range n.routers {
		if n.isDeadRouter(id) {
			continue
		}
		for i := range r.vcs {
			vc := &r.vcs[i]
			pkt, attempt := residentOf(r, vc)
			if pkt == nil {
				continue
			}
			switch {
			case vc.routed && vc.out() < topology.NumPorts && r.outputs[vc.outPort].dead:
				reason := stats.DropKilledLink
				if !topology.Reachable(n.topo, id, pkt.Dst) {
					reason = stats.DropUnreachable
				}
				n.condemnPkt(sw, pkt, attempt, reason, false)
			case !topology.Reachable(n.topo, id, pkt.Dst):
				n.condemnPkt(sw, pkt, attempt, stats.DropUnreachable, false)
			}
		}
		for dir := topology.North; dir < topology.NumPorts; dir++ {
			p := r.outputs[dir]
			if p.dead || !p.hasDownstream() {
				continue
			}
			for i := range p.inflight {
				if f := p.inflight[i].f; !topology.Reachable(n.topo, p.downstream, int(f.Dst)) {
					n.condemnFlit(sw, f, stats.DropUnreachable)
				}
			}
			for i := range p.unacked {
				if f := p.unacked[i].f; !topology.Reachable(n.topo, p.downstream, int(f.Dst)) {
					n.condemnFlit(sw, f, stats.DropUnreachable)
				}
			}
		}
	}
	// Pass 2: condemn by endpoints. Live sources holding replay entries
	// for dead or disconnected destinations declare them; queued control
	// packets toward such destinations are cancelled by resolveCtrl.
	scratch := make([]uint64, 0, 16)
	for id, ni := range n.nis {
		if n.isDeadRouter(id) {
			continue
		}
		scratch = scratch[:0]
		for pid := range ni.replay {
			scratch = append(scratch, pid)
		}
		sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
		for _, pid := range scratch {
			pkt := ni.replay[pid]
			switch {
			case n.isDeadRouter(pkt.Dst):
				n.condemnPkt(sw, pkt, int32(pkt.Retransmissions), stats.DropDeadRouter, true)
			case !topology.Reachable(n.topo, id, pkt.Dst):
				n.condemnPkt(sw, pkt, int32(pkt.Retransmissions), stats.DropUnreachable, true)
			}
		}
		for _, c := range ni.ctrlQueue {
			switch {
			case n.isDeadRouter(c.Dst):
				n.condemnPkt(sw, c, 0, stats.DropDeadRouter, false)
			case !topology.Reachable(n.topo, id, c.Dst):
				n.condemnPkt(sw, c, 0, stats.DropUnreachable, false)
			}
		}
	}
	// Pass 3: purge condemned residents from live routers. Everything a
	// condemned attempt still holds in a buffer leaves now; its wire
	// stragglers are poisoned at accept as they land.
	for id, r := range n.routers {
		if n.isDeadRouter(id) {
			continue
		}
		for i := range r.vcs {
			vc := &r.vcs[i]
			pkt, attempt := residentOf(r, vc)
			if pkt == nil {
				continue
			}
			att, ok := n.condemned[pkt.ID]
			if !ok || attempt > att {
				continue
			}
			reason := stats.DropKilledLink
			if i, hit := sw.index[pkt.ID]; hit {
				reason = sw.affected[i].reason
			}
			n.purgeVC(r, vc, reason)
		}
	}
}

// resolveCondemned settles every packet the sweep condemned, in the
// deterministic order they were condemned: control packets are cancelled
// (re-issuing their request when still meaningful), data packets are
// declared undeliverable or re-queued at their source.
func (n *Network) resolveCondemned(sw *faultSweep) {
	for i := range sw.affected {
		rec := &sw.affected[i]
		pkt := rec.pkt
		if pkt.Kind == flit.NackE2E {
			n.resolveCtrl(rec)
			continue
		}
		switch {
		case rec.declare:
			n.declarePacket(pkt, rec.reason)
		case n.isDeadRouter(pkt.Src) || n.isDeadRouter(pkt.Dst):
			n.declarePacket(pkt, stats.DropDeadRouter)
		case !topology.Reachable(n.topo, pkt.Src, pkt.Dst):
			n.declarePacket(pkt, stats.DropUnreachable)
		default:
			// Only the packet's current attempt warrants action; a
			// condemned older attempt means the source already moved on.
			if att, ok := n.condemned[pkt.ID]; ok && att == int32(pkt.Retransmissions) {
				n.forceRetransmit(pkt)
			}
		}
	}
}

// resolveCtrl cancels a condemned control packet and re-issues its
// effect: the lost NACK was asking the data source to retransmit, so the
// source is told directly — or its packet declared, if the fault that
// killed the NACK also severed the pair.
func (n *Network) resolveCtrl(rec *condemnedRec) {
	c := rec.pkt
	if _, live := n.ctrlLive[c.ID]; !live {
		return // already delivered; the casualty was only an ARQ ghost
	}
	delete(n.ctrlLive, c.ID)
	n.ctrlInFlight--
	n.stats.Drop(rec.reason)
	n.recordDrop(c.Src, c.ID, rec.reason)
	if !n.isDeadRouter(c.Src) {
		src := n.nis[c.Src]
		src.ctrlQueue = removePacket(src.ctrlQueue, c)
		src.abortTx(c)
	}
	// The cancelled control packet settles here; copy out what the
	// re-issue below needs, then retire it (its wire stragglers carry
	// identity by value and fall to the sequence screen).
	refID, dataSrc := c.RefID, c.Dst
	n.pktPool.Put(c)
	if n.isDeadRouter(dataSrc) {
		return // the data source died; killRouter declared its packets
	}
	ref, ok := n.nis[dataSrc].replay[refID]
	if !ok {
		return
	}
	switch {
	case n.isDeadRouter(ref.Dst):
		n.declarePacket(ref, stats.DropDeadRouter)
	case !topology.Reachable(n.topo, ref.Src, ref.Dst):
		n.declarePacket(ref, stats.DropUnreachable)
	default:
		n.forceRetransmit(ref)
	}
}

// declarePacket gives up on a data packet: it leaves the replay buffer
// and the in-flight account with an explicit cause, the graceful
// alternative to retrying into a void forever. Idempotent by the replay
// presence guard.
func (n *Network) declarePacket(pkt *flit.Packet, reason stats.DropReason) {
	src := n.nis[pkt.Src]
	if _, live := src.replay[pkt.ID]; !live {
		return
	}
	delete(src.replay, pkt.ID)
	n.dataInFlight--
	n.totalDeclared++
	n.stats.Drop(reason)
	n.recordDrop(pkt.Src, pkt.ID, reason)
	src.dataQueue = removePacket(src.dataQueue, pkt)
	src.abortTx(pkt)
	n.flushReasm(pkt, reason)
	n.lastProgress = n.cycle
	// Declared means settled: no queue, no replay entry, no buffered flits
	// (the sweep purged them). Surviving wire copies screen out by value.
	n.pktPool.Put(pkt)
}

// forceRetransmit re-queues a packet whose current attempt was condemned
// but whose endpoints still connect — the hard-fault analogue of an
// end-to-end NACK, issued by the simulator because no NACK can report
// flits that died on dead hardware.
func (n *Network) forceRetransmit(pkt *flit.Packet) {
	src := n.nis[pkt.Src]
	if _, live := src.replay[pkt.ID]; !live {
		return
	}
	for _, q := range src.dataQueue {
		if q == pkt {
			return // already awaiting (re)injection
		}
	}
	// Mid-stream: the purge already emptied the local VC; abandon the
	// attempt so the fresh one starts from flit zero.
	src.abortTx(pkt)
	n.flushReasm(pkt, stats.DropKilledLink)
	pkt.Retransmissions++
	n.stats.Measuref(func(c *statsCollector) { c.SourceRetransmissions++ })
	src.EnqueueData(pkt)
}

// flushReasm discards a packet's partially reassembled flits at its
// destination so a later attempt starts from an empty buffer.
func (n *Network) flushReasm(pkt *flit.Packet, reason stats.DropReason) {
	if n.isDeadRouter(pkt.Dst) {
		return // torn down with the router
	}
	dst := n.nis[pkt.Dst]
	buf, ok := dst.reasm[pkt.ID]
	if !ok {
		return
	}
	delete(dst.reasm, pkt.ID)
	r := n.routers[pkt.Dst]
	for i, f := range buf {
		n.dropFlit(f, r, reason)
		buf[i] = nil
	}
	dst.reasmFree = append(dst.reasmFree, buf[:0])
}
