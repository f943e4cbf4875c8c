// Package flit defines the units of data transported by the NoC: packets
// and their constituent flits. Data packets carry a real 128-bit payload
// per flit so that the CRC and SECDED machinery in internal/coding operates
// on genuine bits rather than abstract corruption flags.
package flit

import "fmt"

// Kind distinguishes data packets from the control packets used by the
// end-to-end retransmission protocol.
type Kind int

// Packet kinds.
const (
	// Data is an ordinary payload packet.
	Data Kind = iota
	// NackE2E is a single-flit control packet sent by a destination
	// network interface back to the source when a packet fails its CRC
	// check, requesting a full retransmission from the source (the
	// reactive CRC scheme of Fig. 1(b)).
	NackE2E
)

func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case NackE2E:
		return "nack-e2e"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Type is the position of a flit within its packet.
type Type int

// Flit types.
const (
	Head Type = iota
	Body
	Tail
	// HeadTail marks single-flit packets.
	HeadTail
)

func (t Type) String() string {
	switch t {
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeadTail:
		return "head-tail"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// IsHead reports whether the flit opens a packet (and therefore undergoes
// route computation and VC allocation).
func (t Type) IsHead() bool { return t == Head || t == HeadTail }

// IsTail reports whether the flit closes a packet (and therefore releases
// its VC).
func (t Type) IsTail() bool { return t == Tail || t == HeadTail }

// WordsPerFlit is the number of 64-bit payload words per flit
// (128-bit flits per Table II).
const WordsPerFlit = 2

// Packet is a message traversing the network as a train of flits.
type Packet struct {
	ID   uint64
	Kind Kind
	Src  int // source router ID
	Dst  int // destination router ID

	// RefID is, for control packets, the ID of the data packet they
	// refer to.
	RefID uint64

	// CreatedAt is the cycle the packet entered the source injection
	// queue.
	CreatedAt int64

	// FirstInjectedAt is the cycle of the first injection attempt; it is
	// the time base for end-to-end latency across retransmissions.
	FirstInjectedAt int64

	// Retransmissions counts source-level (end-to-end) retransmissions of
	// this packet.
	Retransmissions int

	// Path records the routers the head flit visited on the current
	// attempt (source first). The healthy route table makes it
	// predictable; qroute's learned hops and reroute detours around hard
	// faults do not, and latency attribution and hop normalization read it
	// back at delivery.
	Path []int

	// Payload holds the original, uncorrupted payload words of all flits
	// (WordsPerFlit words per flit); the source keeps it for replay.
	Payload []uint64

	// CRCs holds the per-flit CRC-16 checksums computed at the source NI.
	CRCs []uint16

	flits int
}

// NumFlits returns the number of flits the packet occupies.
func (p *Packet) NumFlits() int { return p.flits }

// SetNumFlits records the flit count; it must be called once at creation.
func (p *Packet) SetNumFlits(n int) { p.flits = n }

// TypeOf returns the flit type for sequence position seq within the packet.
func (p *Packet) TypeOf(seq int) Type {
	switch {
	case p.flits == 1:
		return HeadTail
	case seq == 0:
		return Head
	case seq == p.flits-1:
		return Tail
	default:
		return Body
	}
}

// Flit is a flow-control unit. Flits are passed by pointer through the
// router pipeline; the payload words are mutated in place by fault
// injection and by SECDED correction.
type Flit struct {
	Packet *Packet
	Seq    int // index within the packet
	Type   Type

	// Value-copied packet identity, stamped at materialization
	// (NI.makeFlit) and propagated by Clone. The wire/ARQ hot paths and
	// every screen that may see a straggler copy (sequence screen, hard-
	// fault poison, kill sweeps) read these instead of dereferencing
	// Packet: a stale copy can outlive its packet once the packet has
	// retired to the PacketPool, and the value fields also keep the hot
	// loops walking flit memory instead of chasing the packet pointer.
	PacketID uint64
	Kind     Kind
	Src, Dst int32

	// Attempt is the packet's Retransmissions count when this flit was
	// materialized. After a hard fault condemns an attempt (its flits were
	// casualties of a killed link or router), straggler copies of that
	// attempt still in flight are identified — and poisoned — by carrying
	// an Attempt no newer than the condemned one, while the source's fresh
	// retransmission carries a higher Attempt and passes untouched.
	Attempt int32

	// Payload is the live 128-bit payload (possibly corrupted in flight).
	Payload [WordsPerFlit]uint64

	// CRC is the CRC-16 computed over the original payload at the source.
	CRC uint16

	// VC is the virtual channel currently carrying the flit.
	VC int

	// ECCCheck holds the SECDED check bits computed by the upstream
	// encoder when the traversed link has its ECC-link enabled; whether
	// they are live travels with the wire copy, not the flit.
	ECCCheck [WordsPerFlit]uint8

	// Tainted marks a flit already identified as corrupt by an input CRC
	// snooper; later snoopers then skip re-blaming their (innocent)
	// upstream neighbors. One extra bit on the flit wires.
	Tainted bool

	// Dirty marks a payload that may differ from the packet's pristine
	// copy: fault injection flipped bits on this flit (or an ancestor it
	// was cloned from) at some hop. A clean flit's payload provably
	// matches its CRC, so checkers skip the CRC-16 recomputation
	// entirely — a simulator-level shortcut with no hardware analogue
	// (hardware always checks; the simulator knows where it injected).
	Dirty bool

	// HopStart is the cycle the flit entered its current input buffer
	// (at the source NI or at a downstream router). The Q-routing scheme
	// reads it when the flit is accepted at the next hop to measure the
	// per-hop delivery cost fed back to the upstream router's agent.
	HopStart int64
}

// RestorePayload rewrites the flit's payload and CRC from the packet's
// pristine copy. Used when the source retransmits.
func (f *Flit) RestorePayload() {
	base := f.Seq * WordsPerFlit
	for i := 0; i < WordsPerFlit; i++ {
		f.Payload[i] = f.Packet.Payload[base+i]
	}
	f.CRC = f.Packet.CRCs[f.Seq]
	f.Tainted = false
	f.Dirty = false
}

func (f *Flit) String() string {
	return fmt.Sprintf("flit{pkt=%d seq=%d %v %d->%d vc=%d}",
		f.PacketID, f.Seq, f.Type, f.Src, f.Dst, f.VC)
}
