package flit

import (
	"testing"

	"rlnoc/internal/coding"
)

func makePacket(t *testing.T, flits int) *Packet {
	t.Helper()
	p := &Packet{ID: 1, Kind: Data, Src: 0, Dst: 5, FirstInjectedAt: -1}
	p.SetNumFlits(flits)
	p.Payload = make([]uint64, flits*WordsPerFlit)
	p.CRCs = make([]uint16, flits)
	for i := range p.Payload {
		p.Payload[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	for i := 0; i < flits; i++ {
		p.CRCs[i] = coding.CRC16Words(p.Payload[i*WordsPerFlit : (i+1)*WordsPerFlit])
	}
	return p
}

func TestTypeOf(t *testing.T) {
	p := makePacket(t, 4)
	want := []Type{Head, Body, Body, Tail}
	for i, w := range want {
		if got := p.TypeOf(i); got != w {
			t.Errorf("TypeOf(%d) = %v, want %v", i, got, w)
		}
	}
	single := makePacket(t, 1)
	if got := single.TypeOf(0); got != HeadTail {
		t.Errorf("single-flit TypeOf(0) = %v, want head-tail", got)
	}
}

func TestTypePredicates(t *testing.T) {
	if !Head.IsHead() || !HeadTail.IsHead() || Body.IsHead() || Tail.IsHead() {
		t.Error("IsHead wrong")
	}
	if !Tail.IsTail() || !HeadTail.IsTail() || Body.IsTail() || Head.IsTail() {
		t.Error("IsTail wrong")
	}
}

func TestRestorePayload(t *testing.T) {
	p := makePacket(t, 4)
	f := &Flit{Packet: p, Seq: 2, Type: Body}
	f.RestorePayload()
	if f.Payload[0] != p.Payload[4] || f.Payload[1] != p.Payload[5] {
		t.Fatal("payload words wrong")
	}
	if f.CRC != p.CRCs[2] {
		t.Fatal("CRC wrong")
	}
	// Corrupt in flight, then restore as a source retransmission would.
	f.Payload[0] ^= 1 << 13
	f.RestorePayload()
	if f.Payload[0] != p.Payload[4] {
		t.Fatal("restore did not undo corruption")
	}
	if coding.CRC16Words(f.Payload[:]) != f.CRC {
		t.Fatal("restored payload fails its own CRC")
	}
}

func TestStrings(t *testing.T) {
	if Data.String() != "data" || NackE2E.String() != "nack-e2e" || Kind(7).String() == "" {
		t.Error("kind names wrong")
	}
	if Head.String() != "head" || HeadTail.String() != "head-tail" || Type(9).String() == "" {
		t.Error("type names wrong")
	}
	p := makePacket(t, 2)
	f := &Flit{Packet: p, Seq: 1, Type: Tail, VC: 2}
	if f.String() == "" {
		t.Error("flit String empty")
	}
}

func TestNumFlits(t *testing.T) {
	p := makePacket(t, 3)
	if p.NumFlits() != 3 {
		t.Fatalf("NumFlits = %d", p.NumFlits())
	}
}
