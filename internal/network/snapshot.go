package network

// Checkpoint/restore for the fabric (DESIGN.md §15). Snap walks every
// stateful piece of the network once, in one fixed, canonical order: an
// encoding codec serializes it, a decoding one overwrites a freshly
// constructed Network built from the same Config so the next Step
// continues bit-identically to the run that was snapshotted. A
// decode also cancels the cycle-0 controller consult New deferred
// (settle): everything it would write is overwritten here.
//
// Pointer identity is the only non-trivial part. Live packets are
// referenced from replay buffers, injection queues, the control ledger,
// input VCs and flits, so they go through an intern table (pktTable):
// each unique packet is written once, in the order a canonical walk
// first encounters it, and every reference becomes an index into that
// table — so decoding reproduces the exact aliasing graph, including ARQ
// ghosts (wire/retransmission copies of settled packets), whose packet
// reference restores to nil exactly because every screen that can meet a
// ghost reads the flit's by-value identity, never the pointer. A flit
// has one home between cycles — a VC buffer slot, a wire entry, a
// retransmission entry or a reassembly buffer (the wire carries a clone
// of what the retransmission buffer keeps) — and is written inline there.
//
// What is deliberately not walked — state a decode rebuilds (request
// masks, port summaries, pending-free counts, route tables, activity
// sets, stream cursors) and state invisible to results (pools, memo
// caches) — is listed field by field, each with its reason, in the
// unsnapshotted table of internal/core/snapshot_fields_test.go, which
// compares a live mid-run sim against its restored twin and fails on any
// differing field the table does not name.

import (
	"cmp"
	"fmt"

	"rlnoc/internal/flit"
	"rlnoc/internal/snap"
	"rlnoc/internal/topology"
)

// pktTable is the packet intern table. Encoding fills it with a
// canonical pre-pass (add) and turns every pointer into its index, -1
// for nil or a packet the pre-pass did not reach (a ghost flit's settled
// packet); decoding fills list from the stream's table section and
// resolves the indices back, bounds-checked, -1 to nil.
type pktTable struct {
	list  []*flit.Packet
	index map[*flit.Packet]int // encoding only
}

func (t *pktTable) add(p *flit.Packet) {
	if p == nil {
		return
	}
	if _, ok := t.index[p]; !ok {
		t.index[p] = len(t.list)
		t.list = append(t.list, p)
	}
}

// ref walks one reference: *p's table index out, the table's entry in.
func (t *pktTable) ref(c *snap.Codec, p **flit.Packet) {
	i := -1
	if !c.Decoding() && *p != nil { // most references are nil (an idle VC)
		if at, ok := t.index[*p]; ok {
			i = at
		}
	}
	c.Int(&i)
	if !c.Decoding() {
		return
	}
	*p = nil
	switch {
	case i >= 0 && i < len(t.list):
		*p = t.list[i]
	case i != -1:
		c.Fail(fmt.Errorf("network: packet reference %d outside table of %d", i, len(t.list)))
	}
}

// fabricWalk carries the packet table through one Snap.
type fabricWalk struct {
	n    *Network
	pkts pktTable
	hdr  flit.Packet // packet's decode scratch
}

// collectPackets enumerates every live packet: per NI in ID order, the
// replay buffer (sorted by packet ID), the injection queues and the
// mid-stream transmitters; then the control ledger (sorted by ID).
// Queue/ledger entries also sit in replay/ctrlLive, so the table dedupes.
func (n *Network) collectPackets(t *pktTable) {
	for _, ni := range n.nis {
		for _, id := range snap.SortedKeys(ni.replay, cmp.Compare[uint64]) {
			t.add(ni.replay[id])
		}
		for _, p := range ni.dataQueue {
			t.add(p)
		}
		t.add(ni.curData.pkt)
		for _, p := range ni.ctrlQueue {
			t.add(p)
		}
		t.add(ni.curCtrl.pkt)
	}
	for _, id := range snap.SortedKeys(n.ctrlLive, cmp.Compare[uint64]) {
		t.add(n.ctrlLive[id])
	}
}

// settleFor resolves the cycle-0 consult ahead of a walk: an encode must
// see its effects, a decode overwrites them all, so it drops the debt.
func (n *Network) settleFor(c *snap.Codec) {
	if c.Decoding() {
		n.consultOwed = false
	} else {
		n.settle()
	}
}

// SnapController walks the controller the network consults; in a core.Sim
// stream it sits ahead of the NETW section. A controller that is no
// snap.Snapshotter (a caller's wrapper) cannot be checkpointed.
func (n *Network) SnapController(c *snap.Codec) error {
	n.settleFor(c)
	ctrl, ok := n.controller.(snap.Snapshotter)
	if !ok {
		return fmt.Errorf("network: snapshot unsupported for a %T controller", n.controller)
	}
	return ctrl.Snap(c)
}

// Snap walks the complete mutable state of the fabric. A decoding codec
// needs a receiver built with the same Config the snapshotted network was
// (the structural length checks fail loudly otherwise).
func (n *Network) Snap(c *snap.Codec) error {
	n.settleFor(c)
	nodes := n.topo.Nodes()

	c.Section("NETW")
	c.LenCheck(nodes)
	c.LenCheck(n.cfg.VCsPerPort)
	c.LenCheck(n.cfg.VCDepth)

	// Global scalars and per-node vectors.
	c.Section("SCLR")
	c.I64(&n.cycle)
	c.U64(&n.packetSeq)
	c.Int(&n.dataInFlight)
	c.Int(&n.ctrlInFlight)
	c.I64(&n.lastProgress)
	c.I64(&n.lastDelivery)
	c.I64(&n.totalInjected)
	c.I64(&n.totalDelivered)
	c.I64(&n.totalDeclared)
	c.Int(&n.unreachablePairs)
	c.Int(&n.hardIdx)
	c.Bool(&n.hardFaulted)
	anyDead := n.deadRouter != nil
	c.Bool(&anyDead)
	if c.Decoding() {
		n.deadRouter = nil
		if anyDead {
			n.deadRouter = make([]bool, nodes)
		}
	}
	if anyDead {
		c.Bools(n.deadRouter)
	}
	c.F64s(n.coreFlits)
	c.LenCheck(len(n.modes))
	for i := range n.modes {
		snap.Enum(c, &n.modes[i])
	}

	// Live packets, then every container: packets as references, flits
	// inline.
	w := &fabricWalk{n: n}
	if !c.Decoding() {
		w.pkts.index = make(map[*flit.Packet]int)
		n.collectPackets(&w.pkts)
	}
	c.Section("PKTS")
	snap.Slice(c, &w.pkts.list, snap.MaxLen, w.packet)

	c.Section("RTRS")
	for _, r := range n.routers {
		w.router(c, r)
	}
	c.Section("NIS ")
	for _, ni := range n.nis {
		w.ni(c, ni)
	}

	// Control ledger (keyed by the packet's own ID) and condemned
	// attempts, sorted by packet ID.
	c.Section("CTRL")
	snap.Map(c, &n.ctrlLive, cmp.Compare[uint64], w.packetByID)
	c.Section("CNDM")
	snap.Map(c, &n.condemned, cmp.Compare[uint64], func(c *snap.Codec, id *uint64, attempt *int32) {
		c.U64(id)
		c.I32(attempt)
	})

	// Learned routing (qroute scheme only; nil-ness is config-derived).
	if n.qr != nil {
		c.Section("QRST")
		for _, a := range n.qr.agents {
			a.Snap(c)
		}
		t := &n.qr.tel
		c.I64(&t.Decisions)
		c.I64(&t.Explorations)
		c.I64(&t.Escapes)
		c.I64(&t.Fallbacks)
		c.I64(&t.Updates)
	}

	for _, sub := range []snap.Snapshotter{n.stats, n.recov, n.grid, n.meter} {
		if err := sub.Snap(c); err != nil {
			return err
		}
	}
	if c.Decoding() {
		// Every draw count read so far on this codec — in a core.Sim
		// stream, the controller's agents' (SnapController, ahead of the
		// NETW section) — is only now checked against the decoded cycle
		// counter. The sources only take the count; each is built and
		// replayed on its first draw, if the resumed run makes one.
		c.ReplayDraws(maxDraws(n.cycle))
		if err := c.Err(); err != nil {
			return err
		}
		return n.afterDecode()
	}
	return nil
}

// maxDraws is the most values one RNG source can have drawn by cycle: an
// agent draws a handful per control epoch, so 256 a cycle, after a head
// start, is far above any honest count. The clamp keeps a flipped cycle
// counter from overflowing the product.
func maxDraws(cycle int64) uint64 {
	return uint64(min(max(cycle, 0), 1<<40)+4096) * 256
}

// afterDecode recomputes everything derived from the decoded kill state.
func (n *Network) afterDecode() error {
	// Route tables and qroute distances are deterministic functions of the
	// dead-port flags; the recomputed unreachable-pair count must agree
	// with the serialized one (checked — a mismatch means the topology
	// diverged from the snapshot's).
	if n.hardFaulted {
		if pairs := n.reroute(); pairs != n.unreachablePairs {
			return fmt.Errorf("network: restore reroute found %d unreachable pairs, snapshot recorded %d",
				pairs, n.unreachablePairs)
		}
	}
	// The qroute exploration streams are rekeyed lazily each cycle; a stale
	// cursor forces the rekey on first use — exact at a cycle boundary.
	if n.qr != nil {
		for i := range n.qr.rngCycle {
			n.qr.rngCycle[i] = -1
		}
	}
	// Activity sets refill conservatively (documented bit-identical: a
	// spurious member is a no-op visit), minus routers that died — the
	// same exclusion killRouter applied in the snapshotted run.
	nodes := n.topo.Nodes()
	n.wireActive.addAll(nodes)
	n.niActive.addAll(nodes)
	n.pipeActive.addAll(nodes)
	for id, dead := range n.deadRouter {
		if dead {
			n.wireActive.remove(id)
			n.niActive.remove(id)
			n.pipeActive.remove(id)
		}
	}
	return nil
}

// maxSnapFlits bounds the per-packet flit count read back from a
// snapshot so a corrupt stream cannot force a huge allocation.
const maxSnapFlits = 1 << 20

// packet walks one live packet's full contents. Decoding rebuilds it
// from the pool (correctly sized Payload/CRCs backing and the fabric's
// Path capacity hint), which needs the flit count the stream carries
// after the scalars — so those land in a scratch header first.
func (w *fabricWalk) packet(c *snap.Codec, pp **flit.Packet) {
	p := *pp
	if c.Decoding() {
		w.hdr = flit.Packet{}
		p = &w.hdr
	}
	c.U64(&p.ID)
	snap.Enum(c, &p.Kind)
	c.Int(&p.Src)
	c.Int(&p.Dst)
	c.U64(&p.RefID)
	c.I64(&p.CreatedAt)
	c.I64(&p.FirstInjectedAt)
	c.Int(&p.Retransmissions)
	nf := p.NumFlits()
	c.Int(&nf)
	if c.Decoding() {
		if c.Err() != nil || nf < 1 || nf > maxSnapFlits {
			c.Fail(fmt.Errorf("network: snapshot packet %d has %d flits", p.ID, nf))
			return
		}
		p = w.n.pktPool.Get(nf)
		w.hdr.Path, w.hdr.Payload, w.hdr.CRCs = p.Path, p.Payload, p.CRCs
		w.hdr.SetNumFlits(nf)
		*p = w.hdr
		*pp = p
	}
	c.VarInts(&p.Path, snap.MaxLen)
	c.U64s(p.Payload)
	c.LenCheck(len(p.CRCs))
	for i := range p.CRCs {
		c.U16(&p.CRCs[i])
	}
}

// packetByID walks one entry of a map keyed by its packet's own ID: the
// stream carries only the reference.
func (w *fabricWalk) packetByID(c *snap.Codec, id *uint64, p **flit.Packet) {
	w.pkts.ref(c, p)
	if c.Decoding() && c.Err() == nil {
		if *p == nil {
			c.Fail(fmt.Errorf("network: snapshot packet map holds a nil reference"))
			return
		}
		*id = (*p).ID
	}
}

// flit walks one live flit at its home, its packet as a reference (nil
// for a ghost whose packet already settled).
func (w *fabricWalk) flit(c *snap.Codec, fp **flit.Flit) {
	if c.Decoding() {
		*fp = &flit.Flit{}
	}
	f := *fp
	w.pkts.ref(c, &f.Packet)
	c.Int(&f.Seq)
	snap.Enum(c, &f.Type)
	c.U64(&f.PacketID)
	snap.Enum(c, &f.Kind)
	c.I32(&f.Src)
	c.I32(&f.Dst)
	c.I32(&f.Attempt)
	for i := range f.Payload {
		c.U64(&f.Payload[i])
	}
	c.U16(&f.CRC)
	c.Int(&f.VC)
	if c.Decoding() && (f.VC < 0 || f.VC >= w.n.cfg.VCsPerPort) {
		c.Fail(fmt.Errorf("network: snapshot flit on VC %d of %d", f.VC, w.n.cfg.VCsPerPort))
	}
	for i := range f.ECCCheck {
		c.U8(&f.ECCCheck[i])
	}
	c.Bool(&f.Tainted)
	c.Bool(&f.Dirty)
	c.I64(&f.HopStart)
}

func (w *fabricWalk) wireFlit(c *snap.Codec, wf *wireFlit) {
	w.flit(c, &wf.f)
	c.I64(&wf.arrive)
	c.U64(&wf.seq)
	c.Bool(&wf.eccValid)
	c.Bool(&wf.dupFollows)
	c.Bool(&wf.isDup)
	c.Bool(&wf.corrupted)
}

func (w *fabricWalk) txEntry(c *snap.Codec, te *txEntry) {
	w.flit(c, &te.f)
	c.U64(&te.seq)
}

func snapAck(c *snap.Codec, a *wireAck) {
	c.U64(&a.seq)
	c.Bool(&a.nack)
	c.I64(&a.deliver)
}

// credit walks one credit in flight back upstream; decoding rejects a VC
// the port does not have.
func (w *fabricWalk) credit(c *snap.Codec, cr *wireCredit) {
	c.Int(&cr.vc)
	c.I64(&cr.deliver)
	if c.Decoding() && (cr.vc < 0 || cr.vc >= w.n.cfg.VCsPerPort) {
		c.Fail(fmt.Errorf("network: snapshot credit returns VC %d of %d", cr.vc, w.n.cfg.VCsPerPort))
	}
}

// router walks one router's arbitration state, its input VCs and its
// output ports.
func (w *fabricWalk) router(c *snap.Codec, rt *Router) {
	c.U64(&rt.occMask)
	for i := range rt.saRR {
		c.Int(&rt.saRR[i])
	}
	for i := range rt.vaRR {
		c.Int(&rt.vaRR[i])
	}
	if c.Decoding() {
		// A pointer is one past the last grant's slot: the VA/SA walks
		// take it as their start with one subtraction, not a modulo.
		for i := range rt.saRR {
			if rt.saRR[i] < 0 || rt.saRR[i] > len(rt.vcs) || rt.vaRR[i] < 0 || rt.vaRR[i] > len(rt.vcs) {
				c.Fail(fmt.Errorf("network: snapshot round-robin pointer out of range at router %d port %d", rt.id, i))
				return
			}
		}
	}
	c.I64(&rt.winErrEvents)
	c.I64(&rt.winFlitsIn)
	c.I64(&rt.winNACKsOut)
	c.I64(&rt.winFlitsOut)
	c.I64(&rt.winNACKsIn)
	c.I64(&rt.winResidual)
	c.F64(&rt.winLatSum)
	c.I64(&rt.winLatCount)
	c.F64(&rt.epochEnergyPJ)
	for i := range rt.vcs { // slot order is port-major
		if !w.inputVC(c, rt, &rt.vcs[i]) {
			return
		}
	}
	if c.Decoding() {
		// The occupancy mask must name exactly the VCs holding flits; the
		// request masks are derived from the route fields just read, the
		// fill register from the fronts (DESIGN.md §18).
		var occ uint64
		for i := range rt.vcs {
			if !rt.vcs[i].empty() {
				occ |= rt.vcs[i].bit()
			}
		}
		if occ != rt.occMask {
			c.Fail(fmt.Errorf("network: snapshot occupancy mask %#x, VC buffers give %#x at router %d", rt.occMask, occ, rt.id))
			return
		}
		rt.routeMask, rt.vaWait = rt.requestMasks()
		rt.fill = [2]uint64{0, rt.fillMask(w.n.cycle)}
	}
	for dir := topology.Direction(0); dir < topology.NumPorts; dir++ {
		p := rt.outputs[dir]
		c.Int(&p.downstream)
		c.Bool(&p.dead)
		// The downstream VC state as the port holds it: the VC count (0
		// without a link), a credit byte per VC, and the busy and
		// pending-free masks.
		nvc := int(p.vcs)
		c.LenCheck(nvc)
		for vc := range nvc {
			c.U8(&p.credits[vc])
			if c.Decoding() && int(p.credits[vc]) > w.n.cfg.VCDepth {
				c.Fail(fmt.Errorf("network: snapshot VC %d holds %d credits of %d", vc, p.credits[vc], w.n.cfg.VCDepth))
			}
		}
		c.U16(&p.vcBusy)
		c.U16(&p.vcPendingFree)
		if c.Decoding() && (p.vcBusy|p.vcPendingFree)>>uint(nvc) != 0 {
			c.Fail(fmt.Errorf("network: snapshot VC flags busy=%#x pending=%#x beyond %d VCs at router %d port %d",
				p.vcBusy, p.vcPendingFree, nvc, rt.id, dir))
		}
		c.I64(&p.linkBusyUntil)
		snap.Enum(c, &p.mode)
		snap.Enum(c, &p.targetMode)
		snap.Slice(c, &p.inflight, snap.MaxLen, w.wireFlit)
		snap.Slice(c, &p.acks, snap.MaxLen, snapAck)
		snap.Slice(c, &p.credRet, snap.MaxLen, w.credit)
		c.U64(&p.nextSeq)
		snap.Slice(c, &p.unacked, snap.MaxLen, w.txEntry)
		c.Int(&p.resendIdx)
		c.U64(&p.expectSeq)
		c.F64(&p.errProb)
		c.I64(&p.winSent)
		if c.Decoding() {
			// The per-link fault stream is rekeyed lazily each cycle; a stale
			// cursor forces the rekey on first use after restore — exact at a
			// cycle boundary, where no stream is mid-cycle.
			p.rngCycle = -1
		}
	}
	if c.Decoding() {
		// The port summaries are derived too (DESIGN.md §20). saAttn is
		// recomputed from the resend cursors and modes just read; wirePorts
		// refills conservatively, like the activity sets: the first wire
		// visit clears the bit of every port it finds quiet, and until then
		// every port with a pending VC release stays flagged.
		rt.saAttn = rt.saAttention()
		rt.wirePorts = 1<<topology.NumPorts - 1
	}
}

// inputVC walks one input VC: its ring head and the flits it holds,
// front first, then the route state. Decoding reports false, the codec
// failed, on a ring position, route port or output VC the fabric does not
// have.
func (w *fabricWalk) inputVC(c *snap.Codec, rt *Router, vc *inputVC) bool {
	c.U8(&vc.head)
	c.U8(&vc.n)
	if c.Decoding() && (int(vc.head) >= rt.depth || int(vc.n) > rt.depth) {
		c.Fail(fmt.Errorf("network: snapshot VC ring head %d, %d flits, depth %d", vc.head, vc.n, rt.depth))
		return false
	}
	for k := 0; k < int(vc.n); k++ {
		w.flit(c, vc.at(rt, k))
	}
	c.Bool(&vc.routed)
	c.U8(&vc.outPort)
	outVC := uint8(vc.outVC)
	c.U8(&outVC)
	vc.outVC = int8(outVC)
	w.pkts.ref(c, &vc.pkt)
	c.Bool(&vc.qAdaptive)
	c.U16(&vc.qWait)
	if c.Decoding() {
		switch {
		case vc.routed && vc.out() >= topology.NumPorts:
			c.Fail(fmt.Errorf("network: snapshot VC routed to port %d of %d", vc.outPort, topology.NumPorts))
		case vc.outVC < -1 || int(vc.outVC) >= rt.nvc:
			c.Fail(fmt.Errorf("network: snapshot VC holds output VC %d of %d", vc.outVC, rt.nvc))
		}
	}
	return c.Err() == nil
}

// txState walks one NI transmitter; decoding rejects a Local-port VC the
// router does not have.
func (w *fabricWalk) txState(c *snap.Codec, tx *txState) {
	w.pkts.ref(c, &tx.pkt)
	c.Int(&tx.next)
	c.Int(&tx.vc)
	if c.Decoding() && (tx.vc < 0 || tx.vc >= w.n.cfg.VCsPerPort) {
		c.Fail(fmt.Errorf("network: snapshot transmitter on VC %d of %d", tx.vc, w.n.cfg.VCsPerPort))
	}
}

// ni walks one network interface: queues and transmitters as packet
// references, and the replay and reassembly maps in sorted-key order.
func (w *fabricWalk) ni(c *snap.Codec, ni *NI) {
	snap.Slice(c, &ni.dataQueue, snap.MaxLen, w.pkts.ref)
	snap.Slice(c, &ni.ctrlQueue, snap.MaxLen, w.pkts.ref)
	w.txState(c, &ni.curData)
	w.txState(c, &ni.curCtrl)
	c.Bools(ni.localVCBusy)
	snap.Map(c, &ni.replay, cmp.Compare[uint64], w.packetByID)
	snap.Map(c, &ni.reasm, cmp.Compare[uint64], func(c *snap.Codec, id *uint64, buf *[]*flit.Flit) {
		c.U64(id)
		snap.Slice(c, buf, snap.MaxLen, w.flit)
	})
}
