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
// input VCs and flits; live flits from VC buffers, link wires, ARQ
// retransmission buffers and reassembly buffers. Both go through intern
// tables (refs): each unique object is written once, in the order a
// canonical walk first encounters it, and every reference becomes an
// index into that table — so decoding reproduces the exact aliasing
// graph, including ARQ ghosts (wire/retransmission copies of settled
// packets), whose packet reference restores to nil exactly because every
// screen that can meet a ghost reads the flit's by-value identity, never
// the pointer.
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

// refs is the intern table of one pointer type. Encoding fills it with a
// canonical pre-pass (add) and turns every pointer into its index;
// decoding fills list from the stream's table section and resolves the
// indices back, bounds-checked.
type refs[T any] struct {
	what  string
	list  []*T
	index map[*T]int // encoding only
	// ghosts makes nil and uninterned pointers legal, stored as -1 and
	// restored as nil (a ghost flit's dangling packet reference).
	// Without it every reference must name a table entry.
	ghosts bool
}

func (t *refs[T]) add(p *T) {
	if p == nil {
		return
	}
	if _, ok := t.index[p]; !ok {
		t.index[p] = len(t.list)
		t.list = append(t.list, p)
	}
}

// ref walks one reference: *p's table index out, the table's entry in.
func (t *refs[T]) ref(c *snap.Codec, p **T) {
	i := -1
	// Most packet references are nil (an idle VC): -1 without a lookup.
	if !c.Decoding() && (*p != nil || !t.ghosts) {
		if at, ok := t.index[*p]; ok {
			i = at
		} else if !t.ghosts {
			// The canonical pre-pass missed a container: a serialization
			// bug, caught at snapshot time rather than as a corrupt restore.
			c.Fail(fmt.Errorf("network: %s %v not in intern table", t.what, *p))
		}
	}
	c.Int(&i)
	if !c.Decoding() {
		return
	}
	switch {
	case i >= 0 && i < len(t.list):
		*p = t.list[i]
	case i < 0 && t.ghosts:
		*p = nil
	default:
		*p = nil
		c.Fail(fmt.Errorf("network: %s reference %d outside table of %d", t.what, i, len(t.list)))
	}
}

// fabricWalk carries the two intern tables through one Snap.
type fabricWalk struct {
	n     *Network
	pkts  refs[flit.Packet]
	flits refs[flit.Flit]
	hdr   flit.Packet // packet's decode scratch
}

// collectPackets enumerates every live packet: per NI in ID order, the
// replay buffer (sorted by packet ID), the injection queues and the
// mid-stream transmitters; then the control ledger (sorted by ID).
// Queue/ledger entries also sit in replay/ctrlLive, so the table dedupes.
func (n *Network) collectPackets(t *refs[flit.Packet]) {
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

// collectFlits visits every flit home in the canonical container order —
// the same order the container sections are walked in — so intern
// indices ascend with the stream: per router (ID order) the input VC
// buffers (port-major), then each output port's wire and retransmission
// buffer; per NI the reassembly buffers (sorted by packet ID).
func (n *Network) collectFlits(t *refs[flit.Flit]) {
	for _, r := range n.routers {
		for v := range r.vcs {
			for _, b := range r.vcs[v].buf {
				t.add(b.f)
			}
		}
		for dir := topology.Direction(0); dir < topology.NumPorts; dir++ {
			p := r.outputs[dir]
			for i := range p.inflight {
				t.add(p.inflight[i].f)
			}
			for i := range p.unacked {
				t.add(p.unacked[i].f)
			}
		}
	}
	for _, ni := range n.nis {
		for _, id := range snap.SortedKeys(ni.reasm, cmp.Compare[uint64]) {
			for _, f := range ni.reasm[id] {
				t.add(f)
			}
		}
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
	// Lazily deferred error probabilities must be concrete before ports
	// serialize: the capture pinned their inputs, so materializing here
	// writes the same bytes an eager refresh would have.
	if !c.Decoding() && n.probsDirty {
		n.materializeErrorProbs()
	}
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
	c.F64(&n.epochLatSum)
	c.I64(&n.epochLatCount)
	c.F64(&n.meanLatEWMA)
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
	c.F64s(n.epochEnergyPJ)
	c.LenCheck(len(n.modes))
	for i := range n.modes {
		snap.Enum(c, &n.modes[i])
	}

	// Live packets, then live flits, then every container as references.
	w := &fabricWalk{n: n,
		pkts:  refs[flit.Packet]{what: "packet", ghosts: true},
		flits: refs[flit.Flit]{what: "flit"}}
	if !c.Decoding() {
		w.pkts.index = make(map[*flit.Packet]int)
		n.collectPackets(&w.pkts)
		w.flits.index = make(map[*flit.Flit]int)
		n.collectFlits(&w.flits)
	}
	c.Section("PKTS")
	snap.Slice(c, &w.pkts.list, snap.MaxLen, w.packet)
	c.Section("FLTS")
	snap.Slice(c, &w.flits.list, snap.MaxLen, w.flit)

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
		c.I64s(n.qr.decisions)
		c.I64s(n.qr.explorations)
		c.I64s(n.qr.escapes)
		c.I64s(n.qr.fallbacks)
		c.I64(&n.qr.updates)
	}

	for _, sub := range []snap.Snapshotter{n.stats, n.recov, n.grid, n.meter} {
		if err := sub.Snap(c); err != nil {
			return err
		}
	}
	if c.Decoding() {
		// Every draw count read so far on this codec — the NIs' above and,
		// in a core.Sim stream, the controller's (SnapController) before the
		// NETW section — is only now checked against the decoded cycle
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
// NI draws flit.WordsPerFlit payload words per flit of each packet built
// at its node, an agent a handful per control epoch. 256 a cycle is 32
// four-flit packets per node per cycle; the head start admits a burst
// queued at cycle 0. The clamp keeps a flipped cycle counter from
// overflowing the product.
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
	c.I64(&p.InjectedAt)
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

// flit walks one live flit, its packet as a reference (nil for a ghost
// whose packet already settled).
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
	for i := range f.ECCCheck {
		c.U8(&f.ECCCheck[i])
	}
	c.Bool(&f.ECCValid)
	c.Bool(&f.Tainted)
	c.Bool(&f.Dirty)
	c.I64(&f.HopStart)
}

func (w *fabricWalk) bufFlit(c *snap.Codec, b *bufFlit) {
	w.flits.ref(c, &b.f)
	c.I64(&b.ready)
}

func (w *fabricWalk) wireFlit(c *snap.Codec, wf *wireFlit) {
	w.flits.ref(c, &wf.f)
	c.I64(&wf.arrive)
	c.U64(&wf.seq)
	c.Bool(&wf.eccValid)
	c.Bool(&wf.dupFollows)
	c.Bool(&wf.isDup)
	c.Bool(&wf.isRetx)
	c.Bool(&wf.corrupted)
}

func (w *fabricWalk) txEntry(c *snap.Codec, te *txEntry) {
	w.flits.ref(c, &te.f)
	c.U64(&te.seq)
	c.Bool(&te.dupFollows)
}

func snapAck(c *snap.Codec, a *wireAck) {
	c.U64(&a.seq)
	c.Bool(&a.nack)
	c.I64(&a.deliver)
}

func snapCredit(c *snap.Codec, cr *wireCredit) {
	c.Int(&cr.vc)
	c.I64(&cr.deliver)
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
	c.I64(&rt.winFlitsIn)
	c.I64(&rt.winErrEvents)
	for i := range rt.vcs { // slot order is port-major
		vc := &rt.vcs[i]
		snap.Slice(c, &vc.buf, vc.cap, w.bufFlit) // bounded by the VC depth
		c.Bool(&vc.routed)
		snap.Enum(c, &vc.outPort)
		c.Int(&vc.outVC)
		w.pkts.ref(c, &vc.pkt)
		c.Bool(&vc.qAdaptive)
		c.I64(&vc.qWait)
		if c.Decoding() && vc.routed && vc.outPort >= topology.NumPorts {
			c.Fail(fmt.Errorf("network: snapshot VC routed to port %d of %d", vc.outPort, topology.NumPorts))
			return
		}
	}
	if c.Decoding() {
		// The request masks are derived from the route fields just read.
		rt.routeMask, rt.vaWait = rt.requestMasks()
	}
	for dir := topology.Direction(0); dir < topology.NumPorts; dir++ {
		p := rt.outputs[dir]
		c.Int(&p.downstream)
		c.Bool(&p.dead)
		c.Ints(p.credits)
		c.Bools(p.vcBusy)
		c.Bools(p.vcPendingFree)
		c.I64(&p.linkBusyUntil)
		snap.Enum(c, &p.mode)
		snap.Enum(c, &p.targetMode)
		snap.Slice(c, &p.inflight, snap.MaxLen, w.wireFlit)
		snap.Slice(c, &p.acks, snap.MaxLen, snapAck)
		snap.Slice(c, &p.credRet, snap.MaxLen, snapCredit)
		c.U64(&p.nextSeq)
		snap.Slice(c, &p.unacked, snap.MaxLen, w.txEntry)
		c.Int(&p.resendIdx)
		c.U64(&p.expectSeq)
		c.F64(&p.errProb)
		c.I64(&p.winSent)
		c.I64(&p.winSentEpoch)
		c.I64(&p.winNackEpoch)
		c.I64(&p.winResidualEpoch)
		if c.Decoding() {
			p.pendingFree = p.countPendingFree()
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

func (w *fabricWalk) txState(c *snap.Codec, tx *txState) {
	w.pkts.ref(c, &tx.pkt)
	c.Int(&tx.next)
	c.Int(&tx.vc)
}

// ni walks one network interface: queues and transmitters as packet
// references, the replay and reassembly maps in sorted-key order, and
// the payload RNG's draw count.
func (w *fabricWalk) ni(c *snap.Codec, ni *NI) {
	snap.Slice(c, &ni.dataQueue, snap.MaxLen, w.pkts.ref)
	snap.Slice(c, &ni.ctrlQueue, snap.MaxLen, w.pkts.ref)
	w.txState(c, &ni.curData)
	w.txState(c, &ni.curCtrl)
	c.Bools(ni.localVCBusy)
	snap.Map(c, &ni.replay, cmp.Compare[uint64], w.packetByID)
	snap.Map(c, &ni.reasm, cmp.Compare[uint64], func(c *snap.Codec, id *uint64, buf *[]*flit.Flit) {
		c.U64(id)
		snap.Slice(c, buf, snap.MaxLen, w.flits.ref)
	})
	ni.rngSrc.Snap(c)
}
