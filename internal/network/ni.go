package network

import (
	"math/rand"

	"rlnoc/internal/coding"
	"rlnoc/internal/eventlog"
	"rlnoc/internal/flit"
	"rlnoc/internal/snap"
	"rlnoc/internal/topology"
)

// NI is a network interface: it owns the injection queues, the CRC
// encoder/decoder, the source replay buffer for end-to-end retransmission
// and the destination reassembly buffers of one node.
type NI struct {
	id  int
	net *Network

	dataQueue []*flit.Packet
	ctrlQueue []*flit.Packet

	// curData/curCtrl track the packet mid-stream in each traffic class,
	// held by value (pkt == nil means idle) so starting a packet never
	// allocates.
	curData txState
	curCtrl txState

	localVCBusy []bool

	replay map[uint64]*flit.Packet
	reasm  map[uint64][]*flit.Flit

	// reasmFree recycles emptied reassembly buffers so steady-state
	// packet reception allocates no slices.
	reasmFree [][]*flit.Flit

	rng *rand.Rand
	// rngSrc is rng's underlying draw-counting source; checkpoint/restore
	// replays the draw count to resume the exact payload sequence.
	rngSrc *snap.CountingSource
}

// txState tracks a packet being streamed into the local input port.
type txState struct {
	pkt  *flit.Packet
	next int // next flit sequence to send
	vc   int
}

// initNI wires one NI in place. lvb is the caller-provided localVCBusy
// backing (a slice of a network-wide arena when called from New).
func initNI(ni *NI, id int, net *Network, seed int64, lvb []bool) {
	src := snap.NewCountingSource(seed)
	*ni = NI{
		id:          id,
		net:         net,
		localVCBusy: lvb,
		replay:      make(map[uint64]*flit.Packet),
		reasm:       make(map[uint64][]*flit.Flit),
		rng:         rand.New(src),
		rngSrc:      src,
	}
}

// EnqueueData queues a freshly created data packet for injection.
func (ni *NI) EnqueueData(p *flit.Packet) {
	ni.dataQueue = append(ni.dataQueue, p)
	ni.net.markNI(ni.id)
}

// enqueueCtrl queues a control packet.
func (ni *NI) enqueueCtrl(p *flit.Packet) {
	ni.ctrlQueue = append(ni.ctrlQueue, p)
	ni.net.markNI(ni.id)
}

// quiet reports that the NI has nothing to inject: no packet mid-stream
// in either class and both queues empty. A stalled packet (no free VC,
// full input buffer) keeps the NI active so it retries every cycle,
// exactly as the dense scan would.
func (ni *NI) quiet() bool {
	return ni.curData.pkt == nil && ni.curCtrl.pkt == nil &&
		len(ni.dataQueue) == 0 && len(ni.ctrlQueue) == 0
}

// QueueDepth returns pending data packets not yet fully injected.
func (ni *NI) QueueDepth() int {
	n := len(ni.dataQueue)
	if ni.curData.pkt != nil {
		n++
	}
	return n
}

// inject pushes at most one flit per cycle into the router's local input
// port; control packets take priority (they are single-flit and unblock
// end-to-end retransmissions).
func (ni *NI) inject(cycle int64) {
	if ni.injectClass(cycle, &ni.curCtrl, &ni.ctrlQueue, true) {
		return
	}
	ni.injectClass(cycle, &ni.curData, &ni.dataQueue, false)
}

// abortTx abandons the in-progress injection of pkt in either class,
// releasing its local VC. No-op when pkt is not mid-stream here.
func (ni *NI) abortTx(pkt *flit.Packet) {
	if ni.curData.pkt == pkt {
		ni.releaseLocalVC(ni.curData.vc)
		ni.curData = txState{}
	}
	if ni.curCtrl.pkt == pkt {
		ni.releaseLocalVC(ni.curCtrl.vc)
		ni.curCtrl = txState{}
	}
}

// injectClass advances one traffic class; reports whether a flit was sent.
func (ni *NI) injectClass(cycle int64, cur *txState, queue *[]*flit.Packet, control bool) bool {
	if cur.pkt == nil {
		if len(*queue) == 0 {
			return false
		}
		lo, hi := ni.net.vcRange(control)
		vc := ni.freeLocalVC(lo, hi)
		if vc < 0 {
			return false
		}
		pkt := (*queue)[0]
		// Pop by compacting in place: the backing array stays put, so the
		// queue never re-allocates once it has grown to its working size.
		q := *queue
		m := copy(q, q[1:])
		q[m] = nil
		*queue = q[:m]
		ni.localVCBusy[vc] = true
		*cur = txState{pkt: pkt, vc: vc}
		if pkt.FirstInjectedAt < 0 {
			pkt.FirstInjectedAt = cycle
		}
		pkt.InjectedAt = cycle
		pkt.Path = pkt.Path[:0] // fresh attempt, fresh route record
	}
	router := ni.net.routers[ni.id]
	vcBuf := router.vc(topology.Local, cur.vc)
	if vcBuf.full() {
		return false
	}
	f := ni.makeFlit(cur.pkt, cur.next)
	f.VC = cur.vc
	f.HopStart = cycle // first-hop clock for the qroute learning signal
	vcBuf.push(f, cycle+pipelineFill)
	ni.net.markPipe(ni.id)
	ni.net.meter.BufferWrite(ni.id)
	ni.net.meter.CRCCheck(ni.id) // source CRC encode
	cur.next++
	if cur.next >= cur.pkt.NumFlits() {
		*cur = txState{}
		// The local VC frees once the packet drains; mark it for the
		// router to release (tracked by the network when the tail wins
		// switch allocation and the buffer empties).
	}
	return true
}

func (ni *NI) freeLocalVC(lo, hi int) int {
	router := ni.net.routers[ni.id]
	for vc := lo; vc < hi && vc < len(ni.localVCBusy); vc++ {
		if !ni.localVCBusy[vc] && router.vc(topology.Local, vc).empty() {
			return vc
		}
	}
	return -1
}

// releaseLocalVC is called by the network when a tail flit leaves the
// local input VC.
func (ni *NI) releaseLocalVC(vc int) { ni.localVCBusy[vc] = false }

// makeFlit materializes flit seq of a packet from its pristine payload,
// drawing the struct from the network's flit pool. The packet's identity
// is stamped onto the flit by value so straggler copies (ARQ ghosts,
// Mode 2 duplicates, kill-sweep casualties) can be screened and dropped
// without touching the packet, which may have settled and recycled.
func (ni *NI) makeFlit(p *flit.Packet, seq int) *flit.Flit {
	f := ni.net.fpool.Get()
	f.Packet = p
	f.PacketID = p.ID
	f.Kind = p.Kind
	f.Src = int32(p.Src)
	f.Dst = int32(p.Dst)
	f.Seq = seq
	f.Type = p.TypeOf(seq)
	f.Attempt = int32(p.Retransmissions)
	f.RestorePayload()
	return f
}

// receive consumes a flit ejected at this node. Once a packet's tail
// lands, all its flits retire to the pool and the reassembly buffer is
// recycled — the ejection side of the allocation-free cycle loop.
func (ni *NI) receive(f *flit.Flit, cycle int64) {
	ni.net.meter.CRCCheck(ni.id)
	id := f.PacketID
	buf, live := ni.reasm[id]
	if !live {
		if n := len(ni.reasmFree); n > 0 {
			buf = ni.reasmFree[n-1]
			ni.reasmFree[n-1] = nil
			ni.reasmFree = ni.reasmFree[:n-1]
		}
	}
	buf = append(buf, f)
	if !f.Type.IsTail() {
		ni.reasm[id] = buf
		return
	}
	delete(ni.reasm, id)
	flits := buf
	defer func() {
		for i, fl := range flits {
			ni.net.fpool.Put(fl)
			flits[i] = nil
		}
		ni.reasmFree = append(ni.reasmFree, flits[:0])
	}()
	pkt := f.Packet
	ok := len(flits) == pkt.NumFlits()
	if ok {
		for _, fl := range flits {
			// Flits never touched by fault injection provably match
			// their source CRC; only dirty payloads need the check
			// recomputed (the CRC energy was charged per flit above).
			if fl.Dirty && coding.CRC16Words(fl.Payload[:]) != fl.CRC {
				ok = false
				break
			}
		}
	}
	switch {
	case pkt.Kind == flit.NackE2E:
		// Control packets ride error-hardened signaling; a failed CRC
		// here would be a simulator bug.
		if !ok {
			ni.net.stats.SilentCorruption++
		}
		ni.net.ctrlInFlight--
		delete(ni.net.ctrlLive, pkt.ID)
		ni.net.nis[pkt.Dst].handleE2ENack(pkt.RefID, cycle)
		// The control packet has done its job; recycle it. Straggler wire
		// copies carry its identity by value and are screen-dropped.
		ni.net.pktPool.Put(pkt)
	case ok:
		ni.net.deliverData(pkt, cycle)
	default:
		// CRC failure: request a full retransmission from the source.
		ni.net.stats.Measuref(func(c *statsCollector) { c.CRCFailures++ })
		ni.net.elog.Record(eventlog.Event{Cycle: cycle, Kind: eventlog.KCRCFail,
			Router: ni.id, Packet: pkt.ID})
		ni.net.sendE2ENack(ni.id, pkt, cycle)
	}
}

// handleE2ENack re-injects the packet identified by refID from the replay
// buffer (this NI is the packet's source).
func (ni *NI) handleE2ENack(refID uint64, cycle int64) {
	pkt, found := ni.replay[refID]
	if !found {
		// Already satisfied (should not happen with one attempt in
		// flight at a time); count it so tests notice.
		ni.net.stats.SilentCorruption++
		return
	}
	pkt.Retransmissions++
	ni.net.stats.Measuref(func(c *statsCollector) { c.SourceRetransmissions++ })
	ni.EnqueueData(pkt)
}
