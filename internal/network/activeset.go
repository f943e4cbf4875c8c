package network

import "math/bits"

// activeSet is a fixed-capacity set of router (or NI) IDs backed by a
// bitset. Step's per-cycle phases iterate members in ascending ID order —
// the same order as a dense `for _, r := range n.routers` scan — so
// activity-proportional stepping visits exactly the routers a dense scan
// would have done work on, in the same sequence, and therefore consumes
// the shared RNG stream and charges the energy meter identically.
//
// Membership is maintained conservatively: any event that *could* give a
// component work (a flit pushed into a buffer, an ACK or credit placed on
// a wire, a pending retransmission or mode switch) adds it; a component is
// removed only after its phase handler ran and left it provably quiet.
// Spurious members are therefore possible but harmless — the phase handler
// is a no-op on a quiet component — while a missing member would be a
// simulation bug. DESIGN.md section 9 states the invariants.
type activeSet struct {
	words []uint64
}

func newActiveSet(n int) activeSet {
	return activeSet{words: make([]uint64, (n+63)/64)}
}

func (s *activeSet) add(i int)    { s.words[i>>6] |= 1 << uint(i&63) }
func (s *activeSet) remove(i int) { s.words[i>>6] &^= 1 << uint(i&63) }

func (s *activeSet) has(i int) bool {
	return s.words[i>>6]&(1<<uint(i&63)) != 0
}

// addAll marks every ID in [0, n) as active.
func (s *activeSet) addAll(n int) {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = 1<<uint(rem) - 1
	}
}

// count returns the number of members (used by tests and diagnostics).
func (s *activeSet) count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// forEach calls fn for every member in ascending ID order. The callback
// may remove the member it is handling (the usual quiesce path) and may
// add members to *other* sets; adding to the set being iterated is not
// part of the stepping protocol (no phase marks its own set) and a
// same-word addition would only be observed on the next cycle.
func (s *activeSet) forEach(fn func(id int)) {
	for wi := 0; wi < len(s.words); wi++ {
		w := s.words[wi]
		base := wi << 6
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << uint(b)
			fn(base + b)
		}
	}
}
