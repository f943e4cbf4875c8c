package network

import (
	"math/bits"

	"rlnoc/internal/detrand"
	"rlnoc/internal/flit"
	"rlnoc/internal/topology"
)

// maxVCs is config.Validate's ceiling on VCs per port: an output port
// keeps one credit byte per downstream VC and one bit per VC in each of
// its allocation masks.
const maxVCs = 12

// inputVC is one virtual-channel FIFO on an input port. Because a
// downstream VC is only reallocated after the previous packet fully
// drains, a VC holds flits of at most one packet at a time.
//
// The struct is the VC's control word, 24 bytes (TestInputVCLayout): its
// flits live in the owning router's flit-pointer slab, a ring of depth
// entries at slot*depth, so a VC holds no slice header, capacity or owner
// pointer, and every method that touches the buffer takes the router.
// Each field has the narrowest type config.Validate's ceilings allow: at
// most 60 slots (5 ports x 12 VCs) and 64 flits of depth fit a byte, an
// output VC index (-1 until VC allocation succeeds) fits an int8, and
// qWait counts to escapeTimeout, a uint16 constant.
type inputVC struct {
	// pkt identifies the resident packet even when the buffer is
	// momentarily empty (flits forwarded, tail still upstream). The
	// hard-fault sweep needs that identity: a kill can strand a VC in
	// exactly that state, with nothing left in the buffer to name it.
	pkt *flit.Packet

	// Q-routing (qroute scheme) only: qWait counts cycles the routed head
	// has sat without a VC grant before escalating onto the escape class.
	qWait uint16

	// head is the ring index of the front flit, n the number buffered.
	head, n uint8

	// slot is this VC's index in the router's occupancy mask and in the
	// VA/SA round-robin numbering: port*vcsPerPort + vcIndex.
	slot uint8

	// Route state for the resident packet: outPort is a
	// topology.Direction, outVC -1 until VC allocation succeeds.
	outPort uint8
	outVC   int8
	routed  bool
	// qAdaptive (qroute only) marks the resident route as learned: VC
	// allocation must serve it from the adaptive (upper) data-VC
	// sub-range.
	qAdaptive bool
}

func (vc *inputVC) empty() bool { return vc.n == 0 }

// out returns the output port the resident packet is routed to.
func (vc *inputVC) out() topology.Direction { return topology.Direction(vc.outPort) }

// bit is this VC's bit in the router's occupancy and request masks.
func (vc *inputVC) bit() uint64 { return 1 << vc.slot }

// full reports whether vc, one of r's input VCs, holds depth flits.
func (vc *inputVC) full(r *Router) bool { return int(vc.n) >= r.depth }

// at returns the slab entry of vc's k-th buffered flit (k < vc.n), front
// first: ring position head+k, wrapped, of the VC's depth entries in r's
// slab.
func (vc *inputVC) at(r *Router, k int) **flit.Flit {
	i := int(vc.head) + k
	if i >= r.depth {
		i -= r.depth
	}
	return &r.bufs[int(vc.slot)*r.depth+i]
}

// unroute clears the resident packet's route state (its tail has left,
// or a hard fault purged it) together with r's request-mask bits.
func (vc *inputVC) unroute(r *Router) {
	if vc.routed {
		r.routeMask[vc.outPort] &^= vc.bit()
		r.vaWait &^= vc.bit()
	}
	vc.routed = false
	vc.outVC = -1
	vc.pkt = nil
	vc.qAdaptive = false
	vc.qWait = 0
}

// push appends a flit at the back of the ring and sets the VC's bit in
// r's occupancy mask. Every caller checks full first and has just set
// f.HopStart to the current cycle, so a flit pushed into an empty VC is a
// front entering the RC/VA fill: its bit joins the fill register.
func (vc *inputVC) push(r *Router, f *flit.Flit) {
	*vc.at(r, int(vc.n)) = f
	if vc.n == 0 {
		r.fill[0] |= vc.bit()
	}
	vc.n++
	r.occMask |= vc.bit()
}

// front returns the front flit, or nil when the VC is empty.
func (vc *inputVC) front(r *Router) *flit.Flit {
	if vc.n == 0 {
		return nil
	}
	return *vc.at(r, 0)
}

// pop removes and returns the front flit: the ring head advances, and
// nothing is copied.
func (vc *inputVC) pop(r *Router) *flit.Flit {
	i := int(vc.slot)*r.depth + int(vc.head)
	f := r.bufs[i]
	r.bufs[i] = nil
	vc.head++
	if int(vc.head) == r.depth {
		vc.head = 0
	}
	vc.n--
	if vc.n == 0 {
		r.occMask &^= vc.bit()
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
	f   *flit.Flit
	seq uint64
}

// outputPort owns one output channel: the credit state of the downstream
// input port, the physical link, and the full ARQ machinery for the
// channel (both the upstream retransmission buffer and the downstream
// decoder's sequence bookkeeping, which is equivalent state since links
// are point-to-point).
//
// Field order is the cache layout (DESIGN.md §20): the struct is four
// 64-byte lines, ports sit back to back in one line-aligned slab, and the
// words one phase reads share a line — the first holds everything the SA
// stage tests before it grants (the downstream VC state among it) and the
// sequence number a grant takes, the second starts with the three wire
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
	// The downstream input port's VC state, one entry per VC below vcs:
	// vcs is the fabric's VCs per port on a port with a link (killed or
	// not) and 0 on Local and unwired ports, which allocate no VC.
	// credits counts free buffer slots (at most VCDepth, 64); bit v of
	// vcBusy marks VC v allocated to a packet, of vcPendingFree a busy VC
	// whose tail has left and which frees once its packet drains.
	vcs           uint8
	credits       [maxVCs]uint8
	vcBusy        uint16
	vcPendingFree uint16
	owner         int32 // ID of the router owning this port (for activity marking)
	// nextSeq is the ARQ sequence number the next transmission takes.
	nextSeq uint64

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

	// Cached per-flit error probability, refreshed at every thermal
	// window and control epoch (refreshErrorProbs).
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
	// pitches (1 for mesh links, row/column span for torus wrap links):
	// the link energy one traversal charges, in units of LinkPJ.
	wireScale int64

	// winSent counts flits sent this *thermal* window (drives the
	// utilization input of the fault model).
	winSent int64

	// linkID is the topology-global link index behind this port (-1 for
	// Local ports, which have no physical link). It keys linkKey and the
	// fault table.
	linkID int32
	inPort topology.Direction

	// Pads the struct to whole lines, so every port in the slab starts
	// on a line boundary (TestOutputPortLayout).
	_ [24]byte
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

// freeIfDrained frees downstream VC vc for reallocation if it is pending
// and its packet has fully drained: all depth credits home and the
// retransmission buffer empty.
func (p *outputPort) freeIfDrained(vc, depth int) {
	bit := uint16(1) << uint(vc)
	if p.vcPendingFree&bit != 0 && int(p.credits[vc]) == depth && len(p.unacked) == 0 {
		p.vcPendingFree &^= bit
		p.vcBusy &^= bit
	}
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
	hi = min(hi, int(p.vcs))
	if lo >= hi {
		return -1
	}
	free := ^p.vcBusy & (uint16(1)<<uint(hi) - 1) &^ (uint16(1)<<uint(lo) - 1)
	if free == 0 {
		return -1
	}
	return bits.TrailingZeros16(free)
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
	// &^ fill and RC the occupied slots in no routeMask. Every slot left
	// out is one whose *TryGrant predicate would have returned false with
	// no side effect. Derived from the VC fields: rebuilt on restore, never
	// serialized.
	vaWait    uint64
	routeMask [topology.NumPorts]uint64

	// fill is the RC/VA fill register (DESIGN.md §18): the slots whose
	// front flit entered its buffer this cycle (fill[0]) or last cycle
	// (fill[1]), pipelineFill cycles from the SA stage. push sets fill[0]
	// for a flit entering an empty VC, grantAndSend for a pop that exposes
	// a flit accepted this cycle (a VC takes at most one push a cycle, so
	// no older front can still be filling), and each SA visit shifts the
	// register once. Between cycles fill[0] is 0 and fill[1] holds the
	// occupied slots whose front's HopStart is the cycle just stepped
	// (fillMask): restore and SetDenseScan rebuild it so, never serialized.
	fill [2]uint64

	// inputUsed has the slot bits of every input port already granted this
	// cycle's switch allocation (one flit per input port per cycle).
	// switchAllocate clears it before arbitration.
	inputUsed uint64

	// Port summaries (DESIGN.md §20), bit per output port, maintained like
	// the activity sets one level up: set where the work is queued, cleared
	// by the phase that visited the port and found it quiet, so a spurious
	// bit costs one no-op port visit and a missing one would be a bug.
	// wirePorts: the port may hold an inflight/acks/credRet entry
	// (flagWire).
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
	// port: slot = port*nvc + vc. bufs holds their flits, depth entries
	// per VC in slot order (inputVC.at).
	vcs   []inputVC
	nvc   int
	bufs  []*flit.Flit
	depth int

	// The control epoch's window, as far as no output port counts it:
	// controlEpoch reads it and clears it on every router, dead ones
	// included. winErrEvents counts the errors injected on the router's
	// output links (the DT training label), winFlitsIn the flits it
	// accepted, winNACKsOut the NACKs it sent upstream, and
	// winLatSum/winLatCount the per-hop latency of the packets delivered
	// through it. epochEnergyPJ is its energy at the epoch's start. Over
	// its output links, winFlitsOut counts the flits sent, winNACKsIn the
	// ECC NACKs received and winResidual the residual corruption the
	// downstream snoopers caught (each also an advisory NACK); a port
	// killed mid-epoch keeps its sends from before the kill.
	winErrEvents  int64
	winFlitsIn    int64
	winNACKsOut   int64
	winFlitsOut   int64
	winNACKsIn    int64
	winResidual   int64
	winLatSum     float64
	winLatCount   int64
	epochEnergyPJ float64
}

// epochSends returns the router's link counters for the epoch: flits
// sent, NACKs received (ECC NACKs plus the snoopers' advisory ones) and
// the residual corruption the snoopers caught.
func (r *Router) epochSends() (sent, nacks, residual int64) {
	return r.winFlitsOut, r.winNACKsIn + r.winResidual, r.winResidual
}

// resetEpoch clears the router's control-epoch window.
func (r *Router) resetEpoch() {
	r.winErrEvents, r.winFlitsIn, r.winNACKsOut = 0, 0, 0
	r.winFlitsOut, r.winNACKsIn, r.winResidual = 0, 0, 0
	r.winLatSum, r.winLatCount = 0, 0
}

// newRouter builds a self-contained router with its own backing slabs
// (tests and standalone use). New allocates network-wide arenas instead
// and calls initRouter directly, so routers sit contiguously in ID order.
func newRouter(id int, vcs, vcDepth int) *Router {
	r := &Router{}
	ports := int(topology.NumPorts)
	initRouter(r, id, vcs, vcDepth, make([]inputVC, ports*vcs), make([]*flit.Flit, ports*vcs*vcDepth))
	return r
}

// initRouter wires one router over caller-provided backing slabs
// (DESIGN.md §14): vcSlab holds its NumPorts x vcs inputVC structs,
// bufSlab the flit-buffer storage (vcDepth entries per VC). A VC's ring
// is the depth entries at slot*vcDepth and cannot bleed into a
// neighbor's: every push site checks full first.
func initRouter(r *Router, id, vcs, vcDepth int, vcSlab []inputVC, bufSlab []*flit.Flit) {
	r.id = id
	r.vcs, r.nvc = vcSlab, vcs
	r.bufs, r.depth = bufSlab, vcDepth
	for slot := range vcSlab {
		vcSlab[slot] = inputVC{slot: uint8(slot), outVC: -1}
	}
}

// vc returns input VC v of port.
func (r *Router) vc(port topology.Direction, v int) *inputVC { return &r.vcs[int(port)*r.nvc+v] }

// portOf returns the input port a VC slot belongs to.
func (r *Router) portOf(slot uint8) topology.Direction { return topology.Direction(int(slot) / r.nvc) }

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

// fillMask recomputes the fill register's second mask from the buffered
// fronts: the occupied slots whose front entered its buffer at cycle.
// Between cycles, with cycle the one just stepped, it is the whole fill
// still owed: every older front is past the RC/VA stages.
func (r *Router) fillMask(cycle int64) (m uint64) {
	for o := r.occMask; o != 0; o &= o - 1 {
		slot := bits.TrailingZeros64(o)
		if r.vcs[slot].front(r).HopStart == cycle {
			m |= 1 << uint(slot)
		}
	}
	return m
}

// shiftFill ages the fill register by one cycle: this cycle's new fronts
// become last cycle's, and last cycle's are ready for the next SA stage.
func (r *Router) shiftFill() { r.fill = [2]uint64{0, r.fill[0]} }

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
// summary says it. VC releases (vcPendingFree) need no term: a pending VC
// is freed by the event that completes its condition — the last credit
// landing or the last ACK popping, both in this phase, or a hard fault's
// killPort or purgeVC — never by a later visit.
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
