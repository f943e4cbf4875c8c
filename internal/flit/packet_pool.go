package flit

// PacketPool is a free list of Packet structs with their backing arrays
// (Payload, CRCs, Path). Under load the simulator creates a packet per
// injection event and a control packet per end-to-end NACK; each fresh
// Packet costs four heap allocations (struct, payload words, CRC table,
// route record), which dominates the loaded-scenario allocation profile
// once flits themselves are pooled. The network retires packets here at
// their settlement points (delivery, declaration, control resolution)
// and builds new ones from the free list, so the cruising loop recycles
// a bounded working set.
//
// A PacketPool is single-goroutine, like the Pool and the Network that
// owns it: packets are created and settled at injection, NI ejection and
// hard-fault resolution. Get fully resets a recycled packet, so a run is
// indistinguishable from one that allocated fresh structs throughout.
//
// Callers that hold a *Packet past its settlement (delivery, declare)
// observe the recycled struct's next life; anything needed afterwards
// (the ID, latency inputs) must be copied out before settlement. The
// flits of a settled packet carry its identity as value fields
// (Flit.PacketID and friends) exactly so they never need the pointer.
//
// The zero value is ready to use.
type PacketPool struct {
	free []*Packet

	// PathHint overrides pathCapHint as the initial Path capacity of
	// freshly allocated packets when positive. The owning network sets it
	// to its fabric's diameter plus slack at construction, so even on a
	// 64x64 mesh (routes up to 127 hops) a packet's route record never
	// regrows mid-flight.
	PathHint int
}

// pathCapHint is the default initial Path capacity for freshly allocated
// packets: enough for minimal routes on small fabrics' typical traffic
// without re-growth, while packets that do travel farther grow their
// record once and keep it for every recycled life.
const pathCapHint = 16

// Get returns a packet sized for nflits flits: scalar fields zeroed,
// Payload and CRCs at exact length (backing arrays reused when capacity
// allows), Path empty with its capacity retained.
func (p *PacketPool) Get(nflits int) *Packet {
	words := nflits * WordsPerFlit
	if n := len(p.free); n > 0 {
		pkt := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		payload, crcs, path := pkt.Payload, pkt.CRCs, pkt.Path
		if cap(payload) < words {
			payload = make([]uint64, words)
		}
		if cap(crcs) < nflits {
			crcs = make([]uint16, nflits)
		}
		*pkt = Packet{Payload: payload[:words], CRCs: crcs[:nflits], Path: path[:0]}
		pkt.flits = nflits
		return pkt
	}
	hint := p.PathHint
	if hint <= 0 {
		hint = pathCapHint
	}
	pkt := &Packet{
		Payload: make([]uint64, words),
		CRCs:    make([]uint16, nflits),
		Path:    make([]int, 0, hint),
	}
	pkt.flits = nflits
	return pkt
}

// Put retires a settled packet to the free list. The caller must hold
// the only live reference (straggler flits excepted — they never follow
// the pointer); nil is ignored so settlement sites need no guard.
func (p *PacketPool) Put(pkt *Packet) {
	if pkt == nil {
		return
	}
	if pkt.flits < 0 {
		panic("flit: packet retired twice")
	}
	pkt.flits = -1
	p.free = append(p.free, pkt)
}
