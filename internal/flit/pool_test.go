package flit

import "testing"

func TestPoolGetResetsRecycledFlit(t *testing.T) {
	var p Pool
	pkt := &Packet{ID: 7}
	f := p.Get()
	f.Packet = pkt
	f.Seq = 3
	f.Type = Tail
	f.Payload = [WordsPerFlit]uint64{0xdead, 0xbeef}
	f.CRC = 0x1234
	f.VC = 2
	f.ECCCheck = [WordsPerFlit]uint8{0xaa, 0xbb}
	f.Tainted = true
	p.Put(f)

	g := p.Get()
	if g != f {
		t.Fatal("pool did not recycle the retired flit")
	}
	if *g != (Flit{}) {
		t.Fatalf("recycled flit not zeroed: %+v", *g)
	}
}

func TestPoolCloneIsDeepAndPooled(t *testing.T) {
	var p Pool
	pkt := &Packet{ID: 9}
	f := &Flit{Packet: pkt, Seq: 1, Payload: [WordsPerFlit]uint64{1, 2}, CRC: 42, Tainted: true}
	c := p.Clone(f)
	if *c != *f {
		t.Fatalf("clone differs: %+v vs %+v", *c, *f)
	}
	if c == f {
		t.Fatal("clone aliases the original")
	}
	c.Payload[0] = 99
	if f.Payload[0] != 1 {
		t.Fatal("clone shares payload storage with the original")
	}
	if c.Packet != f.Packet {
		t.Fatal("clone must share the packet pointer")
	}
}

func TestPoolStats(t *testing.T) {
	var p Pool
	a := p.Get()
	b := p.Get()
	p.Put(a)
	p.Put(b)
	p.Get()
	p.Get()
	p.Put(nil) // ignored
	gets, news, puts := p.Stats()
	if gets != 4 || news != 2 || puts != 2 {
		t.Fatalf("stats = gets %d news %d puts %d, want 4 2 2", gets, news, puts)
	}
	if p.Size() != 0 {
		t.Fatalf("size = %d, want 0", p.Size())
	}
}
