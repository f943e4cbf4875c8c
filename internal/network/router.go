package network

import (
	"math/bits"

	"rlnoc/internal/detrand"
	"rlnoc/internal/flit"
	"rlnoc/internal/topology"
)

// bufFlit is a buffered flit plus the cycle at which it has cleared the
// RC/VA pipeline stages and may compete in switch allocation.
type bufFlit struct {
	f     *flit.Flit
	ready int64
}

// inputVC is one virtual-channel FIFO on an input port. Because a
// downstream VC is only reallocated after the previous packet fully
// drains, a VC holds flits of at most one packet at a time.
type inputVC struct {
	buf []bufFlit
	cap int

	// owner is the router holding this VC; push and pop keep the owner's
	// occupancy mask bit for slot in sync with the buffer.
	owner *Router
	// slot is this VC's index in the router's occupancy mask and in the
	// VA/SA round-robin numbering: port*vcsPerPort + vcIndex.
	slot int

	// Route state for the resident packet.
	routed  bool
	outPort topology.Direction
	outVC   int // -1 until VC allocation succeeds

	// pkt identifies the resident packet even when the buffer is
	// momentarily empty (flits forwarded, tail still upstream). The
	// hard-fault sweep needs that identity: a kill can strand a VC in
	// exactly that state, with nothing left in buf to name the owner.
	pkt *flit.Packet

	// Q-routing (qroute scheme) only. qAdaptive marks the resident route
	// as learned — VC allocation must serve it from the adaptive (upper)
	// data-VC sub-range — and qWait counts cycles the routed head has sat
	// without a VC grant before escalating onto the escape class.
	qAdaptive bool
	qWait     int64
}

func (vc *inputVC) empty() bool { return len(vc.buf) == 0 }
func (vc *inputVC) full() bool  { return len(vc.buf) >= vc.cap }

// bit is this VC's bit in the owner's occupancy and request masks.
func (vc *inputVC) bit() uint64 { return 1 << uint(vc.slot) }

// unroute clears the resident packet's route state (its tail has left,
// or a hard fault purged it) together with the owner's request-mask bits.
func (vc *inputVC) unroute() {
	if vc.routed {
		vc.owner.routeMask[vc.outPort] &^= vc.bit()
		vc.owner.vaWait &^= vc.bit()
	}
	vc.routed = false
	vc.outVC = -1
	vc.pkt = nil
	vc.qAdaptive = false
	vc.qWait = 0
}

func (vc *inputVC) push(f *flit.Flit, ready int64) {
	vc.buf = append(vc.buf, bufFlit{f: f, ready: ready})
	vc.owner.occMask |= vc.bit()
}

func (vc *inputVC) front() *bufFlit {
	if len(vc.buf) == 0 {
		return nil
	}
	return &vc.buf[0]
}

// pop removes and returns the front flit, compacting in place so the
// buffer's backing array (sized to the VC depth at construction) is
// reused for the lifetime of the router.
func (vc *inputVC) pop() *flit.Flit {
	f := vc.buf[0].f
	m := copy(vc.buf, vc.buf[1:])
	vc.buf[m] = bufFlit{}
	vc.buf = vc.buf[:m]
	if m == 0 {
		vc.owner.occMask &^= vc.bit()
	}
	return f
}

// wireFlit is a flit in flight on a link.
type wireFlit struct {
	f        *flit.Flit
	arrive   int64
	seq      uint64
	eccValid bool
	// dupFollows marks a Mode 2 original whose pre-retransmitted copy
	// arrives next cycle; the downstream decoder defers its NACK.
	dupFollows bool
	// isDup marks the pre-retransmitted copy itself.
	isDup bool
	// isRetx marks a link-level (go-back-N) retransmission.
	isRetx bool
	// corrupted marks a copy whose payload was hit by fault injection on
	// this traversal. A clean ECC-protected copy needs no SECDED decode:
	// its check bits were (conceptually) computed over exactly this
	// payload, so decoding is a guaranteed no-op and the downstream
	// receiver skips the word loop. The decode energy is still charged.
	corrupted bool
}

// wireAck is an ACK/NACK traveling upstream on the dedicated ack wires.
type wireAck struct {
	seq     uint64
	nack    bool
	deliver int64
}

// wireCredit is a credit return traveling upstream.
type wireCredit struct {
	vc      int
	deliver int64
}

// txEntry is an unacknowledged transmission held in the output
// (retransmission) buffer while ARQ awaits its ACK. The stored flit is the
// clean pre-corruption copy.
type txEntry struct {
	f          *flit.Flit
	seq        uint64
	dupFollows bool
}

// outputPort owns one output channel: the credit state of the downstream
// input port, the physical link, and the full ARQ machinery for the
// channel (both the upstream retransmission buffer and the downstream
// decoder's sequence bookkeeping, which is equivalent state since links
// are point-to-point).
//
// Field order is the cache layout (DESIGN.md §20): the struct is five
// 64-byte lines, ports sit back to back in one line-aligned slab, and the
// words one phase reads share a line — the first holds everything the SA
// stage tests before it grants, the second starts with the three wire
// queues, so a wire-phase visit that finds them empty touches one line.
// TestOutputPortLayout pins the offsets.
type outputPort struct {
	// Line 0: the SA gate.
	dir           topology.Direction
	downstream    int // router ID, or -1 for ejection/edge
	linkBusyUntil int64
	resendIdx     int // index into unacked, -1 when no retransmission pending
	// mode is the operating mode; targetMode is the controller's latest
	// request. A switch is applied only once the channel's ARQ state has
	// drained (no unacked flits, no pending retransmission) — switching
	// mid-stream would let an unprotected flit bypass the go-back-N
	// sequence screen and be lost.
	mode       Mode
	targetMode Mode
	// dead marks a hard-failed channel. killPort also clears downstream
	// (so hasDownstream() excuses the port from every pipeline stage and
	// observation loop exactly like an unwired mesh edge), but an unwired
	// port and a killed one differ for the topology: Neighbor still
	// reports the killed link as wired, so credit-return sites check dead
	// ports explicitly before appending to their queues.
	dead bool
	// winRelaxed (with winUtil below) is an error-model input pinned by
	// the last boundary capture; winCaptured marks the port as awaiting
	// materialization. Never serialized: snapshots materialize first.
	winRelaxed  bool
	winCaptured bool
	// pendingFree counts the set entries of vcPendingFree, so releaseVCs
	// skips the scan on the (usual) port with nothing to release. Derived:
	// recounted on restore, never serialized.
	pendingFree uint8
	credits     []int

	// Line 1: in-flight traffic and reverse wires.
	inflight []wireFlit
	acks     []wireAck
	credRet  []wireCredit

	// ARQ downstream (decoder) state. A failed Mode 2 original needs no
	// extra bookkeeping: its duplicate carries the same sequence number,
	// so expectSeq simply stays put until a good copy lands.
	expectSeq uint64

	// ARQ upstream state.
	unacked []txEntry
	nextSeq uint64

	// Cached per-flit error probability, refreshed each thermal window.
	// The refresh is split: a boundary *captures* the model inputs
	// (winUtil, winRelaxed) and marks the network's probabilities stale;
	// the Pow/Erf kernel runs lazily, only once something can consume
	// errProb (see captureErrorInputs / materializeErrorProbs).
	errProb float64

	// rng is the counter-based fault stream for this link, rekeyed lazily
	// to linkKey.At(cycle) — (seed, DomainLink, linkID, cycle) — on first
	// use each cycle so the original and its Mode 2 duplicate advance one
	// stream in a fixed order, whatever order the routers are visited in.
	// rngCycle records the cycle the stream was keyed for.
	rngCycle int64
	rng      detrand.Stream
	linkKey  detrand.KeyPrefix

	// wireScale is the physical wire length behind this port in tile
	// pitches (1 for mesh links, row/column span for torus wrap links);
	// it multiplies the per-traversal link energy.
	wireScale float64

	// winSent counts flits sent this *thermal* window (drives the
	// utilization input of the fault model).
	winSent int64

	// Per-*epoch* channel counters for the PortController observations.
	winSentEpoch     int64
	winNackEpoch     int64
	winResidualEpoch int64

	owner int32 // ID of the router owning this port (for activity marking)
	// linkID is the topology-global link index behind this port (-1 for
	// Local ports, which have no physical link). It keys linkKey and the
	// fault table.
	linkID int32

	vcBusy        []bool
	vcPendingFree []bool
	inPort        topology.Direction
	winUtil       float64
}

func (p *outputPort) hasDownstream() bool { return p.downstream >= 0 }

// switchPending reports whether a requested mode change is still waiting
// for the channel to drain.
func (p *outputPort) switchPending() bool { return p.targetMode != p.mode }

// trySwitchMode applies a pending mode change if the ARQ state is clean.
func (p *outputPort) trySwitchMode() {
	if p.switchPending() && len(p.unacked) == 0 && p.resendIdx < 0 {
		p.mode = p.targetMode
	}
}

// markPendingFree schedules downstream VC vc for release once its packet
// has fully drained (releaseVCs).
func (p *outputPort) markPendingFree(vc int) {
	if !p.vcPendingFree[vc] {
		p.vcPendingFree[vc] = true
		p.pendingFree++
	}
}

// countPendingFree recounts pendingFree from vcPendingFree.
func (p *outputPort) countPendingFree() uint8 {
	var k uint8
	for _, pending := range p.vcPendingFree {
		if pending {
			k++
		}
	}
	return k
}

// wireQueued reports whether any of the port's three wire queues holds an
// entry.
func (p *outputPort) wireQueued() bool {
	return len(p.inflight) > 0 || len(p.acks) > 0 || len(p.credRet) > 0
}

// saPending reports whether the SA stage owes the port a visit even with
// no requester: a go-back-N resend or a mode switch is waiting.
func (p *outputPort) saPending() bool { return p.resendIdx >= 0 || p.switchPending() }

// freeVC returns the lowest free downstream VC in [lo, hi), or -1.
func (p *outputPort) freeVC(lo, hi int) int {
	for vc := lo; vc < hi && vc < len(p.vcBusy); vc++ {
		if !p.vcBusy[vc] {
			return vc
		}
	}
	return -1
}

// Router is one fabric router: five input ports of VCs and five output
// ports. The words every visit reads come first, so the masks that decide
// which ports a visit touches at all share the struct's leading lines.
type Router struct {
	id int

	// occMask has bit (port*vcsPerPort + vc) set while that input VC
	// holds flits. The RC/VA/SA stages iterate set bits instead of
	// scanning all ports x VCs, and bit order equals the dense scan
	// order, so arbitration outcomes are unchanged. Capacity bounds
	// VCsPerPort at 12 (5 ports x 12 VCs = 60 bits; enforced by
	// config.Validate).
	occMask uint64

	// Request masks (DESIGN.md §18), over the same slot numbering as
	// occMask. routeMask[out] has a slot's bit set while its VC is routed
	// to output port out (vc.routed && vc.outPort == out); vaWait while it
	// is routed but holds no output VC yet (vc.routed && vc.outVC == -1).
	// A bit may be set on an empty VC (body flits still upstream), so the
	// stages always intersect with occMask: VA visits occMask &
	// routeMask[out] & vaWait, SA visits occMask & routeMask[out] &^ vaWait
	// and RC the occupied slots in no routeMask. Every slot left out is one
	// whose *TryGrant predicate would have returned false with no side
	// effect. Derived from the VC fields: rebuilt on restore, never
	// serialized.
	vaWait    uint64
	routeMask [topology.NumPorts]uint64

	// inputUsed has the slot bits of every input port already granted this
	// cycle's switch allocation (one flit per input port per cycle).
	// switchAllocate clears it before arbitration.
	inputUsed uint64

	// Port summaries (DESIGN.md §20), bit per output port, maintained like
	// the activity sets one level up: set where the work is queued, cleared
	// by the phase that visited the port and found it quiet, so a spurious
	// bit costs one no-op port visit and a missing one would be a bug.
	// wirePorts: the port may hold an inflight/acks/credRet entry, or a
	// hard fault just made a VC release possible on it (flagWire).
	// saAttn: the port may hold a pending go-back-N resend or mode switch
	// (outputPort.saPending). Never serialized: a restore sets every
	// wirePorts bit and recomputes saAttn.
	wirePorts uint8
	saAttn    uint8

	// saRR rotates switch-allocation priority across input (port, vc)
	// pairs per output port.
	saRR [topology.NumPorts]int
	// vaRR rotates VC-allocation priority per output port.
	vaRR [topology.NumPorts]int

	outputs [topology.NumPorts]*outputPort
	// up[in] is the upstream router's output port feeding input port in —
	// where the credits of flits leaving that input return to. Nil for
	// Local and for unwired edges; fixed at wiring (a killed link keeps
	// its entry and is screened by outputPort.dead).
	up [topology.NumPorts]*outputPort

	// vcs is the router's input VCs in slot order (port-major), nvc per
	// port: slot = port*nvc + vc.
	vcs []inputVC
	nvc int

	// Window counters for controller features.
	winFlitsIn   int64
	winErrEvents int64
}

// newRouter builds a self-contained router with its own backing slabs
// (tests and standalone use). New allocates network-wide arenas instead
// and calls initRouter directly, so routers sit contiguously in ID order.
func newRouter(id int, vcs, vcDepth int) *Router {
	r := &Router{}
	ports := int(topology.NumPorts)
	initRouter(r, id, vcs, vcDepth, make([]inputVC, ports*vcs), make([]bufFlit, ports*vcs*vcDepth))
	return r
}

// initRouter wires one router over caller-provided backing slabs
// (DESIGN.md §14): vcSlab holds its NumPorts x vcs inputVC structs,
// bufSlab the flit-buffer storage (vcDepth entries per VC). The buffer
// slices are three-index (cap pinned to the slot) and cannot bleed into a
// neighbor's slot: every push site checks full() first, so append never
// grows past cap.
func initRouter(r *Router, id, vcs, vcDepth int, vcSlab []inputVC, bufSlab []bufFlit) {
	r.id = id
	r.vcs, r.nvc = vcSlab, vcs
	for slot := range vcSlab {
		bo := slot * vcDepth
		vcSlab[slot] = inputVC{buf: bufSlab[bo : bo : bo+vcDepth], cap: vcDepth,
			owner: r, slot: slot, outVC: -1}
	}
}

// vc returns input VC v of port.
func (r *Router) vc(port topology.Direction, v int) *inputVC { return &r.vcs[int(port)*r.nvc+v] }

// portOf returns the input port a VC slot belongs to.
func (r *Router) portOf(slot int) topology.Direction { return topology.Direction(slot / r.nvc) }

// requestMasks recomputes routeMask and vaWait from the VC route fields:
// the restore path installs the result, the invariant census compares it
// with the incrementally maintained masks.
func (r *Router) requestMasks() (route [topology.NumPorts]uint64, vaWait uint64) {
	for i := range r.vcs {
		vc := &r.vcs[i]
		if !vc.routed {
			continue
		}
		route[vc.outPort] |= vc.bit()
		if vc.outVC == -1 {
			vaWait |= vc.bit()
		}
	}
	return route, vaWait
}

// saAttention recomputes saAttn from the port state; the restore path
// installs the result.
func (r *Router) saAttention() (attn uint8) {
	for dir, p := range r.outputs {
		if p.saPending() {
			attn |= 1 << uint(dir)
		}
	}
	return attn
}

// wiresQuiet reports that no port of the router has wire-phase work: no
// in-flight flits, no pending ACK/NACKs, no credit returns. stepWires
// just cleared the wirePorts bit of every port it found with all three
// queues empty, and a port outside wirePorts holds no entry, so the
// summary says it. VC releases (vcPendingFree) need no separate term: the
// conditions releaseVCs waits on (credits refilled, retransmission buffer
// drained) can only become true through an ACK or credit arriving on
// these wires, which re-adds the router and releaseVCs runs in that same
// visit — or through a hard fault, which flags the port (flagWire).
func (r *Router) wiresQuiet() bool { return r.wirePorts == 0 }

// pipeQuiet reports that the RC/VA/SA stages have nothing to do: every
// input VC is empty and no output port is waiting to service a go-back-N
// retransmission or apply a pending mode switch — switchAllocate just
// left saAttn exact.
func (r *Router) pipeQuiet() bool { return r.occMask == 0 && r.saAttn == 0 }

// occupiedVCs counts input VCs currently holding flits (Table I feature 1).
func (r *Router) occupiedVCs() int {
	return bits.OnesCount64(r.occMask)
}

func (r *Router) totalVCs() int { return len(r.vcs) }
