package network

import (
	"testing"
	"unsafe"

	"rlnoc/internal/flit"
	"rlnoc/internal/topology"
)

func TestInputVCFIFO(t *testing.T) {
	vc := &inputVC{cap: 2, owner: &Router{}, outVC: -1}
	if !vc.empty() || vc.full() {
		t.Fatal("fresh VC state wrong")
	}
	p := &flit.Packet{}
	p.SetNumFlits(2)
	f1 := &flit.Flit{Packet: p, Seq: 0, Type: flit.Head}
	f2 := &flit.Flit{Packet: p, Seq: 1, Type: flit.Tail}
	vc.push(f1, 10)
	vc.push(f2, 11)
	if !vc.full() {
		t.Fatal("VC should be full at cap 2")
	}
	if front := vc.front(); front == nil || front.f != f1 || front.ready != 10 {
		t.Fatal("front wrong")
	}
	if got := vc.pop(); got != f1 {
		t.Fatal("pop order wrong")
	}
	if got := vc.pop(); got != f2 {
		t.Fatal("pop order wrong")
	}
	if !vc.empty() || vc.front() != nil {
		t.Fatal("VC should be empty")
	}
}

func TestOutputPortFreeVC(t *testing.T) {
	p := &outputPort{vcBusy: []bool{true, false, true, false}}
	if got := p.freeVC(0, 2); got != 1 {
		t.Errorf("freeVC(0,2) = %d, want 1", got)
	}
	if got := p.freeVC(2, 4); got != 3 {
		t.Errorf("freeVC(2,4) = %d, want 3", got)
	}
	p.vcBusy[1] = true
	p.vcBusy[3] = true
	if got := p.freeVC(0, 4); got != -1 {
		t.Errorf("freeVC with all busy = %d, want -1", got)
	}
	// Range beyond slice length must not panic.
	if got := p.freeVC(3, 99); got != -1 {
		t.Errorf("freeVC overrange = %d", got)
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
	r.vc(topology.North, 2).push(&flit.Flit{Packet: p, Type: flit.HeadTail}, 0)
	r.vc(topology.Local, 0).push(&flit.Flit{Packet: p, Type: flit.HeadTail}, 0)
	if got := r.occupiedVCs(); got != 2 {
		t.Fatalf("occupiedVCs = %d, want 2", got)
	}
}

// TestOutputPortLayout pins the cache layout the field order of outputPort
// states (DESIGN.md §20): ports are whole 64-byte lines, the words the SA
// stage tests before a grant fill the first, and the second starts with
// the three wire queues, whose length words all fall inside it.
func TestOutputPortLayout(t *testing.T) {
	const line = 64
	var p outputPort
	if size := unsafe.Sizeof(p); size%line != 0 {
		t.Errorf("outputPort is %d bytes, not a whole number of %d-byte lines", size, line)
	}
	if end := unsafe.Offsetof(p.credits) + unsafe.Sizeof(p.credits); end != line {
		t.Errorf("the SA gate (dir … credits) ends at byte %d, want %d", end, line)
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
