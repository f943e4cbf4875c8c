package network

// Checkpoint/restore for the fabric (DESIGN.md §15). SnapState walks
// every stateful piece of the network in one fixed, canonical order;
// SnapRestore overwrites a freshly constructed Network built from the
// same Config so the next Step continues bit-identically to the run that
// was snapshotted — at any StepWorkers count, because no scheduling
// state is serialized at all.
//
// Pointer identity is the only non-trivial part. Live packets are
// referenced from replay buffers, injection queues, the control ledger,
// input VCs and flits; live flits from VC buffers, link wires, ARQ
// retransmission buffers and reassembly buffers. Both are serialized
// through intern tables: each unique object is written once, in the
// order a canonical walk first encounters it, and every reference
// becomes an index into that table — so restore reproduces the exact
// aliasing graph, including ARQ ghosts (wire/retransmission copies of
// settled packets), whose packet reference restores to nil exactly
// because every screen that can meet a ghost reads the flit's by-value
// identity, never the pointer.
//
// Deliberately not serialized, with the reasons:
//   - activity sets: conservatively refillable (addAll) — a spurious
//     member is a no-op visit with no draws and no meter charges;
//   - flit/packet pool free lists and counters: invisible to results
//     (Get fully resets recycled objects);
//   - shard staging buffers and the worker hub: empty between cycles;
//     restore re-shards for whatever worker count the new process has;
//   - per-port and qroute detrand streams: rekeyed lazily per cycle, so
//     restoring their cursor to "stale" (-1) is exact at a boundary;
//   - topology route tables and qroute distances: recomputed from the
//     restored dead-port flags (Reroute/rebuildDist are deterministic);
//   - hardSched: reparsed from the Config the restorer constructed with;
//   - the fault model's memo caches: deterministic functions of inputs.

import (
	"fmt"
	"sort"

	"rlnoc/internal/flit"
	"rlnoc/internal/snap"
	"rlnoc/internal/stats"
	"rlnoc/internal/topology"
)

// pktIntern assigns table indices to live packets in canonical
// first-encounter order.
type pktIntern struct {
	list []*flit.Packet
	idx  map[*flit.Packet]int
}

func (t *pktIntern) add(p *flit.Packet) {
	if p == nil {
		return
	}
	if _, ok := t.idx[p]; ok {
		return
	}
	t.idx[p] = len(t.list)
	t.list = append(t.list, p)
}

// ref returns the intern index of p, or -1 for nil and for pointers not
// in the table (a ghost flit's dangling reference).
func (t *pktIntern) ref(p *flit.Packet) int {
	if p == nil {
		return -1
	}
	if i, ok := t.idx[p]; ok {
		return i
	}
	return -1
}

// collectPackets enumerates every live packet: per NI in ID order, the
// replay buffer (sorted by packet ID), the injection queues and the
// mid-stream transmitters; then the control ledger (sorted by ID).
// Queue/ledger entries also sit in replay/ctrlLive, so the map dedupes.
func (n *Network) collectPackets() *pktIntern {
	t := &pktIntern{idx: make(map[*flit.Packet]int)}
	keys := make([]uint64, 0, 64)
	for _, ni := range n.nis {
		keys = keys[:0]
		for id := range ni.replay {
			keys = append(keys, id)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, id := range keys {
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
	keys = keys[:0]
	for id := range n.ctrlLive {
		keys = append(keys, id)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, id := range keys {
		t.add(n.ctrlLive[id])
	}
	return t
}

// flitIntern assigns table indices to live flits.
type flitIntern struct {
	list []*flit.Flit
	idx  map[*flit.Flit]int
}

func (t *flitIntern) add(f *flit.Flit) {
	if f == nil {
		return
	}
	if _, ok := t.idx[f]; ok {
		return
	}
	t.idx[f] = len(t.list)
	t.list = append(t.list, f)
}

// walkFlits visits every flit home in the canonical container order —
// the same order the container sections are written in — so intern
// indices ascend with the stream: per router (ID order) the input VC
// buffers (port-major), then each output port's wire and retransmission
// buffer; per NI the reassembly buffers (sorted by packet ID).
func (n *Network) walkFlits(visit func(*flit.Flit)) {
	for _, r := range n.routers {
		for port := topology.Direction(0); port < topology.NumPorts; port++ {
			for _, vc := range r.inputs[port] {
				for i := range vc.buf {
					visit(vc.buf[i].f)
				}
			}
		}
		for dir := topology.Direction(0); dir < topology.NumPorts; dir++ {
			p := r.outputs[dir]
			for i := range p.inflight {
				visit(p.inflight[i].f)
			}
			for i := range p.unacked {
				visit(p.unacked[i].f)
			}
		}
	}
	keys := make([]uint64, 0, 16)
	for _, ni := range n.nis {
		keys = keys[:0]
		for id := range ni.reasm {
			keys = append(keys, id)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, id := range keys {
			for _, f := range ni.reasm[id] {
				visit(f)
			}
		}
	}
}

// SnapState serializes the complete mutable state of the fabric.
func (n *Network) SnapState(w *snap.Writer) error {
	// Lazily deferred error probabilities must be concrete before ports
	// serialize: the capture pinned their inputs, so materializing here
	// writes the same bytes an eager refresh would have.
	if n.probsDirty {
		n.materializeErrorProbs()
	}
	nodes := n.topo.Nodes()
	vcs := n.cfg.VCsPerPort

	w.Section("NETW")
	w.Len(nodes)
	w.Len(vcs)
	w.Len(n.cfg.VCDepth)

	// Global scalars and per-node vectors.
	w.Section("SCLR")
	w.I64(n.cycle)
	w.U64(n.packetSeq)
	w.Int(n.dataInFlight)
	w.Int(n.ctrlInFlight)
	w.I64(n.lastProgress)
	w.I64(n.lastDelivery)
	w.I64(n.totalInjected)
	w.I64(n.totalDelivered)
	w.I64(n.totalDeclared)
	w.F64(n.epochLatSum)
	w.I64(n.epochLatCount)
	w.F64(n.meanLatEWMA)
	w.Int(n.unreachablePairs)
	w.Int(n.hardIdx)
	w.Bool(n.hardFaulted)
	w.Bool(n.deadRouter != nil)
	if n.deadRouter != nil {
		w.Bools(n.deadRouter)
	}
	w.F64s(n.coreFlits)
	w.F64s(n.epochEnergyPJ)
	w.Len(len(n.modes))
	for _, m := range n.modes {
		w.U8(uint8(m))
	}

	// Live packets, then live flits, then every container as references.
	pt := n.collectPackets()
	w.Section("PKTS")
	w.Len(len(pt.list))
	for _, p := range pt.list {
		snapPacket(w, p)
	}

	ft := &flitIntern{idx: make(map[*flit.Flit]int)}
	n.walkFlits(ft.add)
	w.Section("FLTS")
	w.Len(len(ft.list))
	for _, f := range ft.list {
		snapFlit(w, f, pt)
	}

	w.Section("RTRS")
	for _, r := range n.routers {
		n.snapRouter(w, r, pt, ft)
	}

	w.Section("NIS ")
	for _, ni := range n.nis {
		snapNI(w, ni, pt, ft)
	}

	// Control ledger and condemned attempts, sorted by packet ID.
	w.Section("CTRL")
	ids := make([]uint64, 0, len(n.ctrlLive))
	for id := range n.ctrlLive {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Len(len(ids))
	for _, id := range ids {
		w.Int(pt.ref(n.ctrlLive[id]))
	}

	w.Section("CNDM")
	ids = ids[:0]
	for id := range n.condemned {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.Len(len(ids))
	for _, id := range ids {
		w.U64(id)
		w.I32(n.condemned[id])
	}

	// Learned routing (qroute scheme only; nil-ness is config-derived).
	if n.qr != nil {
		w.Section("QRST")
		for _, a := range n.qr.agents {
			a.SnapState(w)
		}
		w.I64s(n.qr.decisions)
		w.I64s(n.qr.explorations)
		w.I64s(n.qr.escapes)
		w.I64s(n.qr.fallbacks)
		w.I64(n.qr.updates)
	}

	// Delegated subsystems.
	if err := n.stats.SnapState(w); err != nil {
		return err
	}
	if err := n.recov.SnapState(w); err != nil {
		return err
	}
	if err := n.grid.SnapState(w); err != nil {
		return err
	}
	if err := n.meter.SnapState(w); err != nil {
		return err
	}
	return w.Err()
}

// SnapRestore overwrites the state of a freshly constructed network.
// The receiver must have been built with the same Config the snapshotted
// network was (the structural length checks fail loudly otherwise).
func (n *Network) SnapRestore(r *snap.Reader) error {
	nodes := n.topo.Nodes()
	vcs := n.cfg.VCsPerPort

	r.Section("NETW")
	r.LenCheck(nodes)
	r.LenCheck(vcs)
	r.LenCheck(n.cfg.VCDepth)

	r.Section("SCLR")
	n.cycle = r.I64()
	n.packetSeq = r.U64()
	n.dataInFlight = r.Int()
	n.ctrlInFlight = r.Int()
	n.lastProgress = r.I64()
	n.lastDelivery = r.I64()
	n.totalInjected = r.I64()
	n.totalDelivered = r.I64()
	n.totalDeclared = r.I64()
	n.epochLatSum = r.F64()
	n.epochLatCount = r.I64()
	n.meanLatEWMA = r.F64()
	n.unreachablePairs = r.Int()
	n.hardIdx = r.Int()
	n.hardFaulted = r.Bool()
	if r.Bool() {
		n.deadRouter = make([]bool, nodes)
		r.BoolsInto(n.deadRouter)
	} else {
		n.deadRouter = nil
	}
	r.F64sInto(n.coreFlits)
	r.F64sInto(n.epochEnergyPJ)
	r.LenCheck(len(n.modes))
	for i := range n.modes {
		n.modes[i] = Mode(r.U8())
	}

	r.Section("PKTS")
	npkts := r.Len()
	if r.Err() != nil {
		return r.Err()
	}
	pkts := make([]*flit.Packet, npkts)
	for i := range pkts {
		pkts[i] = n.restorePacket(r)
	}

	r.Section("FLTS")
	nflits := r.Len()
	if r.Err() != nil {
		return r.Err()
	}
	flits := make([]*flit.Flit, nflits)
	for i := range flits {
		flits[i] = restoreFlit(r, pkts)
	}

	r.Section("RTRS")
	for _, rt := range n.routers {
		n.restoreRouter(r, rt, pkts, flits)
	}

	r.Section("NIS ")
	for _, ni := range n.nis {
		restoreNI(r, ni, pkts, flits)
	}

	r.Section("CTRL")
	nctrl := r.Len()
	if r.Err() != nil {
		return r.Err()
	}
	n.ctrlLive = make(map[uint64]*flit.Packet, nctrl)
	for i := 0; i < nctrl; i++ {
		p := pktAt(r, pkts, r.Int())
		if p != nil {
			n.ctrlLive[p.ID] = p
		}
	}

	r.Section("CNDM")
	ncond := r.Len()
	if r.Err() != nil {
		return r.Err()
	}
	n.condemned = nil
	if ncond > 0 {
		n.condemned = make(map[uint64]int32, ncond)
		for i := 0; i < ncond; i++ {
			id := r.U64()
			n.condemned[id] = r.I32()
		}
	}

	if n.qr != nil {
		r.Section("QRST")
		for _, a := range n.qr.agents {
			a.SnapRestore(r)
		}
		r.I64sInto(n.qr.decisions)
		r.I64sInto(n.qr.explorations)
		r.I64sInto(n.qr.escapes)
		r.I64sInto(n.qr.fallbacks)
		n.qr.updates = r.I64()
		for i := range n.qr.rngCycle {
			n.qr.rngCycle[i] = -1
		}
	}

	if err := n.stats.SnapRestore(r); err != nil {
		return err
	}
	if n.recov != nil {
		if err := n.recov.SnapRestore(r); err != nil {
			return err
		}
	} else {
		// Consume the nil log's empty record to stay in sync.
		if err := stats.NewRecoveryLog().SnapRestore(r); err != nil {
			return err
		}
	}
	if err := n.grid.SnapRestore(r); err != nil {
		return err
	}
	if err := n.meter.SnapRestore(r); err != nil {
		return err
	}
	if r.Err() != nil {
		return r.Err()
	}

	// Epilogue: recompute everything derived from the restored kill state.
	// Route tables and qroute distances are deterministic functions of the
	// dead-port flags; the recomputed unreachable-pair count must agree
	// with the serialized one (checked — a mismatch means the topology
	// diverged from the snapshot's).
	if n.hardFaulted {
		fa, ok := n.topo.(topology.FaultAware)
		if !ok {
			return fmt.Errorf("network: restored snapshot has hard faults but topology %T cannot reroute", n.topo)
		}
		pairs := fa.Reroute(func(id int, d topology.Direction) bool {
			return n.routers[id].outputs[d].dead
		})
		if pairs != n.unreachablePairs {
			return fmt.Errorf("network: restore reroute found %d unreachable pairs, snapshot recorded %d",
				pairs, n.unreachablePairs)
		}
		if n.qr != nil {
			n.qr.rebuildDist(n.topo, func(id int, d topology.Direction) bool {
				return n.routers[id].outputs[d].dead
			})
		}
	}
	// Activity sets refill conservatively (documented bit-identical: a
	// spurious member is a no-op visit), minus routers that died — the
	// same exclusion killRouter applied in the snapshotted run.
	n.wireActive.addAll(nodes)
	n.niActive.addAll(nodes)
	n.pipeActive.addAll(nodes)
	if n.deadRouter != nil {
		for id, dead := range n.deadRouter {
			if dead {
				n.wireActive.remove(id)
				n.niActive.remove(id)
				n.pipeActive.remove(id)
			}
		}
	}
	return nil
}

// snapPacket writes one live packet's full contents.
func snapPacket(w *snap.Writer, p *flit.Packet) {
	w.U64(p.ID)
	w.U8(uint8(p.Kind))
	w.Int(p.Src)
	w.Int(p.Dst)
	w.U64(p.RefID)
	w.I64(p.CreatedAt)
	w.I64(p.InjectedAt)
	w.I64(p.FirstInjectedAt)
	w.Int(p.Retransmissions)
	w.Int(p.NumFlits())
	w.Ints(p.Path)
	w.U64s(p.Payload)
	w.Len(len(p.CRCs))
	for _, c := range p.CRCs {
		w.U16(c)
	}
}

// restorePacket rebuilds one packet from the pool (correctly sized
// Payload/CRCs backing and the fabric's Path capacity hint).
func (n *Network) restorePacket(r *snap.Reader) *flit.Packet {
	id := r.U64()
	kind := flit.Kind(r.U8())
	src := r.Int()
	dst := r.Int()
	refID := r.U64()
	created := r.I64()
	injected := r.I64()
	firstInjected := r.I64()
	retx := r.Int()
	nf := r.Int()
	if r.Err() != nil || nf < 1 || nf > maxSnapFlits {
		r.Fail(fmt.Errorf("network: snapshot packet %d has %d flits", id, nf))
		return nil
	}
	p := n.pktPool.Get(nf)
	p.ID = id
	p.Kind = kind
	p.Src = src
	p.Dst = dst
	p.RefID = refID
	p.CreatedAt = created
	p.InjectedAt = injected
	p.FirstInjectedAt = firstInjected
	p.Retransmissions = retx
	p.Path = append(p.Path[:0], r.Ints()...)
	r.U64sInto(p.Payload)
	r.LenCheck(len(p.CRCs))
	for i := range p.CRCs {
		p.CRCs[i] = r.U16()
	}
	return p
}

// maxSnapFlits bounds the per-packet flit count read back from a
// snapshot so a corrupt stream cannot force a huge allocation.
const maxSnapFlits = 1 << 20

// snapFlit writes one live flit, its packet as an intern reference (-1
// for a ghost whose packet already settled).
func snapFlit(w *snap.Writer, f *flit.Flit, pt *pktIntern) {
	w.Int(pt.ref(f.Packet))
	w.Int(f.Seq)
	w.U8(uint8(f.Type))
	w.U64(f.PacketID)
	w.U8(uint8(f.Kind))
	w.I32(f.Src)
	w.I32(f.Dst)
	w.I32(f.Attempt)
	for _, v := range f.Payload {
		w.U64(v)
	}
	w.U16(f.CRC)
	w.Int(f.VC)
	for _, v := range f.ECCCheck {
		w.U8(v)
	}
	w.Bool(f.ECCValid)
	w.Bool(f.Tainted)
	w.Bool(f.Dirty)
	w.I64(f.HopStart)
}

func restoreFlit(r *snap.Reader, pkts []*flit.Packet) *flit.Flit {
	f := &flit.Flit{}
	f.Packet = pktAt(r, pkts, r.Int())
	f.Seq = r.Int()
	f.Type = flit.Type(r.U8())
	f.PacketID = r.U64()
	f.Kind = flit.Kind(r.U8())
	f.Src = r.I32()
	f.Dst = r.I32()
	f.Attempt = r.I32()
	for i := range f.Payload {
		f.Payload[i] = r.U64()
	}
	f.CRC = r.U16()
	f.VC = r.Int()
	for i := range f.ECCCheck {
		f.ECCCheck[i] = r.U8()
	}
	f.ECCValid = r.Bool()
	f.Tainted = r.Bool()
	f.Dirty = r.Bool()
	f.HopStart = r.I64()
	return f
}

// pktAt resolves a packet intern reference (-1 means nil).
func pktAt(r *snap.Reader, pkts []*flit.Packet, ref int) *flit.Packet {
	if ref < 0 {
		return nil
	}
	if ref >= len(pkts) {
		r.Fail(fmt.Errorf("network: packet reference %d outside table of %d", ref, len(pkts)))
		return nil
	}
	return pkts[ref]
}

// flitAt resolves a flit intern reference. Container slots always hold
// live flits, so -1 is an error here.
func flitAt(r *snap.Reader, flits []*flit.Flit, ref int) *flit.Flit {
	if ref < 0 || ref >= len(flits) {
		r.Fail(fmt.Errorf("network: flit reference %d outside table of %d", ref, len(flits)))
		return nil
	}
	return flits[ref]
}

// flitRef looks up a container flit's intern index, failing the writer
// if the canonical walk somehow missed it (a serialization bug, caught
// at snapshot time rather than as a corrupt restore).
func flitRef(w *snap.Writer, ft *flitIntern, f *flit.Flit) int {
	i, ok := ft.idx[f]
	if !ok {
		w.Fail(fmt.Errorf("network: flit %v not in intern table", f))
		return -1
	}
	return i
}

// snapRouter writes one router's arbitration state, its input VCs and
// its output ports.
func (n *Network) snapRouter(w *snap.Writer, rt *Router, pt *pktIntern, ft *flitIntern) {
	w.U64(rt.occMask)
	for i := range rt.saRR {
		w.Int(rt.saRR[i])
	}
	for i := range rt.vaRR {
		w.Int(rt.vaRR[i])
	}
	w.I64(rt.winFlitsIn)
	w.I64(rt.winErrEvents)
	for port := topology.Direction(0); port < topology.NumPorts; port++ {
		for _, vc := range rt.inputs[port] {
			w.Len(len(vc.buf))
			for i := range vc.buf {
				w.Int(flitRef(w, ft, vc.buf[i].f))
				w.I64(vc.buf[i].ready)
			}
			w.Bool(vc.routed)
			w.U8(uint8(vc.outPort))
			w.Int(vc.outVC)
			w.Int(pt.ref(vc.pkt))
			w.Bool(vc.qAdaptive)
			w.I64(vc.qWait)
		}
	}
	for dir := topology.Direction(0); dir < topology.NumPorts; dir++ {
		p := rt.outputs[dir]
		w.Int(p.downstream)
		w.Bool(p.dead)
		w.Ints(p.credits)
		w.Bools(p.vcBusy)
		w.Bools(p.vcPendingFree)
		w.I64(p.linkBusyUntil)
		w.U8(uint8(p.mode))
		w.U8(uint8(p.targetMode))
		w.Len(len(p.inflight))
		for i := range p.inflight {
			wf := &p.inflight[i]
			w.Int(flitRef(w, ft, wf.f))
			w.I64(wf.arrive)
			w.U64(wf.seq)
			w.Bool(wf.eccValid)
			w.Bool(wf.dupFollows)
			w.Bool(wf.isDup)
			w.Bool(wf.isRetx)
			w.Bool(wf.corrupted)
		}
		w.Len(len(p.acks))
		for i := range p.acks {
			w.U64(p.acks[i].seq)
			w.Bool(p.acks[i].nack)
			w.I64(p.acks[i].deliver)
		}
		w.Len(len(p.credRet))
		for i := range p.credRet {
			w.Int(p.credRet[i].vc)
			w.I64(p.credRet[i].deliver)
		}
		w.U64(p.nextSeq)
		w.Len(len(p.unacked))
		for i := range p.unacked {
			w.Int(flitRef(w, ft, p.unacked[i].f))
			w.U64(p.unacked[i].seq)
			w.Bool(p.unacked[i].dupFollows)
		}
		w.Int(p.resendIdx)
		w.U64(p.expectSeq)
		w.F64(p.errProb)
		w.I64(p.winSent)
		w.I64(p.winSentEpoch)
		w.I64(p.winNackEpoch)
		w.I64(p.winResidualEpoch)
	}
}

func (n *Network) restoreRouter(r *snap.Reader, rt *Router, pkts []*flit.Packet, flits []*flit.Flit) {
	rt.occMask = r.U64()
	for i := range rt.saRR {
		rt.saRR[i] = r.Int()
	}
	for i := range rt.vaRR {
		rt.vaRR[i] = r.Int()
	}
	rt.winFlitsIn = r.I64()
	rt.winErrEvents = r.I64()
	for port := topology.Direction(0); port < topology.NumPorts; port++ {
		for _, vc := range rt.inputs[port] {
			bn := r.Len()
			if r.Err() != nil {
				return
			}
			if bn > vc.cap {
				r.Fail(fmt.Errorf("network: snapshot VC holds %d flits, depth is %d", bn, vc.cap))
				return
			}
			vc.buf = vc.buf[:0]
			for i := 0; i < bn; i++ {
				f := flitAt(r, flits, r.Int())
				vc.buf = append(vc.buf, bufFlit{f: f, ready: r.I64()})
			}
			vc.routed = r.Bool()
			vc.outPort = topology.Direction(r.U8())
			vc.outVC = r.Int()
			vc.pkt = pktAt(r, pkts, r.Int())
			vc.qAdaptive = r.Bool()
			vc.qWait = r.I64()
			if vc.routed && vc.outPort >= topology.NumPorts {
				r.Fail(fmt.Errorf("network: snapshot VC routed to port %d of %d", vc.outPort, topology.NumPorts))
				return
			}
		}
	}
	// The request masks are derived from the route fields just read.
	rt.routeMask, rt.vaWait = rt.requestMasks()
	for dir := topology.Direction(0); dir < topology.NumPorts; dir++ {
		p := rt.outputs[dir]
		p.downstream = r.Int()
		p.dead = r.Bool()
		r.IntsInto(p.credits)
		r.BoolsInto(p.vcBusy)
		r.BoolsInto(p.vcPendingFree)
		p.pendingFree = p.countPendingFree()
		p.linkBusyUntil = r.I64()
		p.mode = Mode(r.U8())
		p.targetMode = Mode(r.U8())
		fn := r.Len()
		if r.Err() != nil {
			return
		}
		p.inflight = p.inflight[:0]
		for i := 0; i < fn; i++ {
			wf := wireFlit{f: flitAt(r, flits, r.Int())}
			wf.arrive = r.I64()
			wf.seq = r.U64()
			wf.eccValid = r.Bool()
			wf.dupFollows = r.Bool()
			wf.isDup = r.Bool()
			wf.isRetx = r.Bool()
			wf.corrupted = r.Bool()
			p.inflight = append(p.inflight, wf)
		}
		an := r.Len()
		if r.Err() != nil {
			return
		}
		p.acks = p.acks[:0]
		for i := 0; i < an; i++ {
			p.acks = append(p.acks, wireAck{seq: r.U64(), nack: r.Bool(), deliver: r.I64()})
		}
		cn := r.Len()
		if r.Err() != nil {
			return
		}
		p.credRet = p.credRet[:0]
		for i := 0; i < cn; i++ {
			p.credRet = append(p.credRet, wireCredit{vc: r.Int(), deliver: r.I64()})
		}
		p.nextSeq = r.U64()
		un := r.Len()
		if r.Err() != nil {
			return
		}
		p.unacked = p.unacked[:0]
		for i := 0; i < un; i++ {
			te := txEntry{f: flitAt(r, flits, r.Int())}
			te.seq = r.U64()
			te.dupFollows = r.Bool()
			p.unacked = append(p.unacked, te)
		}
		p.resendIdx = r.Int()
		p.expectSeq = r.U64()
		p.errProb = r.F64()
		p.winSent = r.I64()
		p.winSentEpoch = r.I64()
		p.winNackEpoch = r.I64()
		p.winResidualEpoch = r.I64()
		// The per-link fault stream is rekeyed lazily each cycle; a stale
		// cursor forces the rekey on first use after restore — exact at a
		// cycle boundary, where no stream is mid-cycle.
		p.rngCycle = -1
	}
}

// snapNI writes one network interface: queues and transmitters as packet
// references, the replay and reassembly maps in sorted-key order, and
// the payload RNG's draw count.
func snapNI(w *snap.Writer, ni *NI, pt *pktIntern, ft *flitIntern) {
	w.Len(len(ni.dataQueue))
	for _, p := range ni.dataQueue {
		w.Int(pt.ref(p))
	}
	w.Len(len(ni.ctrlQueue))
	for _, p := range ni.ctrlQueue {
		w.Int(pt.ref(p))
	}
	w.Int(pt.ref(ni.curData.pkt))
	w.Int(ni.curData.next)
	w.Int(ni.curData.vc)
	w.Int(pt.ref(ni.curCtrl.pkt))
	w.Int(ni.curCtrl.next)
	w.Int(ni.curCtrl.vc)
	w.Bools(ni.localVCBusy)
	keys := make([]uint64, 0, len(ni.replay))
	for id := range ni.replay {
		keys = append(keys, id)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.Len(len(keys))
	for _, id := range keys {
		w.Int(pt.ref(ni.replay[id]))
	}
	keys = keys[:0]
	for id := range ni.reasm {
		keys = append(keys, id)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.Len(len(keys))
	for _, id := range keys {
		w.U64(id)
		buf := ni.reasm[id]
		w.Len(len(buf))
		for _, f := range buf {
			w.Int(flitRef(w, ft, f))
		}
	}
	ni.rngSrc.Snap(w)
}

func restoreNI(r *snap.Reader, ni *NI, pkts []*flit.Packet, flits []*flit.Flit) {
	dn := r.Len()
	if r.Err() != nil {
		return
	}
	ni.dataQueue = ni.dataQueue[:0]
	for i := 0; i < dn; i++ {
		ni.dataQueue = append(ni.dataQueue, pktAt(r, pkts, r.Int()))
	}
	cn := r.Len()
	if r.Err() != nil {
		return
	}
	ni.ctrlQueue = ni.ctrlQueue[:0]
	for i := 0; i < cn; i++ {
		ni.ctrlQueue = append(ni.ctrlQueue, pktAt(r, pkts, r.Int()))
	}
	ni.curData = txState{pkt: pktAt(r, pkts, r.Int()), next: r.Int(), vc: r.Int()}
	ni.curCtrl = txState{pkt: pktAt(r, pkts, r.Int()), next: r.Int(), vc: r.Int()}
	r.BoolsInto(ni.localVCBusy)
	rn := r.Len()
	if r.Err() != nil {
		return
	}
	ni.replay = make(map[uint64]*flit.Packet, rn)
	for i := 0; i < rn; i++ {
		if p := pktAt(r, pkts, r.Int()); p != nil {
			ni.replay[p.ID] = p
		}
	}
	mn := r.Len()
	if r.Err() != nil {
		return
	}
	ni.reasm = make(map[uint64][]*flit.Flit, mn)
	for i := 0; i < mn; i++ {
		id := r.U64()
		bn := r.Len()
		if r.Err() != nil {
			return
		}
		buf := make([]*flit.Flit, 0, bn)
		for j := 0; j < bn; j++ {
			buf = append(buf, flitAt(r, flits, r.Int()))
		}
		ni.reasm[id] = buf
	}
	ni.rngSrc.Unsnap(r)
}
