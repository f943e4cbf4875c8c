package network

import (
	"testing"
	"unsafe"

	"rlnoc/internal/flit"
	"rlnoc/internal/topology"
)

func TestInputVCFIFO(t *testing.T) {
	r := newRouter(0, 2, 2)
	vc := r.vc(topology.North, 1)
	if !vc.empty() || vc.full(r) {
		t.Fatal("fresh VC state wrong")
	}
	p := &flit.Packet{}
	p.SetNumFlits(3)
	f1 := &flit.Flit{Packet: p, Seq: 0, Type: flit.Head, HopStart: 10}
	f2 := &flit.Flit{Packet: p, Seq: 1, Type: flit.Body, HopStart: 11}
	f3 := &flit.Flit{Packet: p, Seq: 2, Type: flit.Tail, HopStart: 12}
	vc.push(r, f1)
	vc.push(r, f2)
	if !vc.full(r) {
		t.Fatal("VC should be full at depth 2")
	}
	if r.occMask != vc.bit() {
		t.Fatalf("occMask = %#x, want only the VC's bit %#x", r.occMask, vc.bit())
	}
	if front := vc.front(r); front != f1 || front.HopStart != 10 {
		t.Fatal("front wrong")
	}
	if r.fill[0] != vc.bit() {
		t.Fatalf("fill[0] = %#x, want only the bit of the VC the first push filled", r.fill[0])
	}
	if got := vc.pop(r); got != f1 {
		t.Fatal("pop order wrong")
	}
	// The ring wraps: f3 takes the slot f1 left.
	vc.push(r, f3)
	for _, want := range []*flit.Flit{f2, f3} {
		if got := vc.pop(r); got != want {
			t.Fatal("pop order wrong across the ring's wrap")
		}
	}
	if !vc.empty() || vc.front(r) != nil || r.occMask != 0 {
		t.Fatal("VC should be empty")
	}
	for i, f := range r.bufs {
		if f != nil {
			t.Fatalf("slab entry %d still references a popped flit", i)
		}
	}
}

func TestOutputPortFreeVC(t *testing.T) {
	p := &outputPort{vcs: 4, vcBusy: 0b0101}
	if got := p.freeVC(0, 2); got != 1 {
		t.Errorf("freeVC(0,2) = %d, want 1", got)
	}
	if got := p.freeVC(2, 4); got != 3 {
		t.Errorf("freeVC(2,4) = %d, want 3", got)
	}
	p.vcBusy |= 0b1010
	if got := p.freeVC(0, 4); got != -1 {
		t.Errorf("freeVC with all busy = %d, want -1", got)
	}
	// A range past the port's VCs finds none there.
	if got := p.freeVC(3, 99); got != -1 {
		t.Errorf("freeVC overrange = %d", got)
	}
	if got := (&outputPort{}).freeVC(0, 4); got != -1 {
		t.Errorf("freeVC on a port without a link = %d, want -1", got)
	}
}

func TestOutputPortModeSwitchGate(t *testing.T) {
	p := &outputPort{resendIdx: -1, mode: Mode0, targetMode: Mode0}
	p.targetMode = Mode1
	if !p.switchPending() {
		t.Fatal("switch not pending")
	}
	// Unacked entries block the switch.
	p.unacked = []txEntry{{seq: 3}}
	p.trySwitchMode()
	if p.mode != Mode0 {
		t.Fatal("switched with unacked traffic")
	}
	// Pending retransmission blocks the switch.
	p.unacked = nil
	p.resendIdx = 0
	p.trySwitchMode()
	if p.mode != Mode0 {
		t.Fatal("switched while retransmitting")
	}
	// Clean channel: switch applies.
	p.resendIdx = -1
	p.trySwitchMode()
	if p.mode != Mode1 || p.switchPending() {
		t.Fatal("switch did not apply on a clean channel")
	}
}

func TestRouterOccupiedVCs(t *testing.T) {
	r := newRouter(0, 4, 4)
	if r.occupiedVCs() != 0 {
		t.Fatal("fresh router has occupied VCs")
	}
	if r.totalVCs() != 20 {
		t.Fatalf("totalVCs = %d, want 20", r.totalVCs())
	}
	p := &flit.Packet{}
	p.SetNumFlits(1)
	r.vc(topology.North, 2).push(r, &flit.Flit{Packet: p, Type: flit.HeadTail})
	r.vc(topology.Local, 0).push(r, &flit.Flit{Packet: p, Type: flit.HeadTail})
	if got := r.occupiedVCs(); got != 2 {
		t.Fatalf("occupiedVCs = %d, want 2", got)
	}
}

// TestOutputPortLayout pins the cache layout the field order of outputPort
// states (DESIGN.md §20): ports are at most four whole 64-byte lines, the
// words the SA stage tests before a grant — the downstream VC state
// inline — fill the first with the sequence counter a grant advances, and
// the second starts with the three wire queues, whose length words all
// fall inside it.
func TestOutputPortLayout(t *testing.T) {
	const line = 64
	var p outputPort
	if size := unsafe.Sizeof(p); size%line != 0 || size > 4*line {
		t.Errorf("outputPort is %d bytes, want a whole number of %d-byte lines, at most %d", size, line, 4*line)
	}
	if end := unsafe.Offsetof(p.vcPendingFree) + unsafe.Sizeof(p.vcPendingFree); end > line {
		t.Errorf("the SA gate (dir … vcPendingFree) ends at byte %d, past the first line", end)
	}
	if end := unsafe.Offsetof(p.nextSeq) + unsafe.Sizeof(p.nextSeq); end != line {
		t.Errorf("nextSeq ends at byte %d, want %d", end, line)
	}
	if off := unsafe.Offsetof(p.inflight); off != line {
		t.Errorf("inflight starts at byte %d, want the second line (%d)", off, line)
	}
	// A slice header is (ptr, len, cap): the last queue's len word is 8
	// bytes into its header.
	if lenEnd := unsafe.Offsetof(p.credRet) + 16; lenEnd > 2*line {
		t.Errorf("credRet's length word ends at byte %d, past the second line", lenEnd)
	}
}

// TestInputVCLayout pins the VC control word (DESIGN.md §14): a packet
// reference and a few narrow counters, its flits in the router's slab.
// An 8x8 fabric at the default 4 VCs holds 1,280 of them per job; the
// slice-header layout they replaced was 96 bytes each.
func TestInputVCLayout(t *testing.T) {
	if size := unsafe.Sizeof(inputVC{}); size > 32 {
		t.Errorf("inputVC is %d bytes, want at most 32", size)
	}
}
