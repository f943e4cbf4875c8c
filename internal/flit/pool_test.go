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

// TestPoolCloneIsDeepAndPooled: a clone is an exact, separate copy that
// counts one get, from an empty pool and from the free list alike. Clone
// writes its copy straight over a recycled flit instead of zeroing it
// first, so nothing of the retired flit may survive.
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
	if gets, news, _ := p.Stats(); gets != 1 || news != 1 {
		t.Fatalf("after one clone from an empty pool: gets %d news %d, want 1 1", gets, news)
	}

	*c = Flit{Seq: 99, Type: Head, Payload: [WordsPerFlit]uint64{0xdead, 0xbeef}, CRC: 0x1234,
		VC: 3, ECCCheck: [WordsPerFlit]uint8{0xaa, 0xbb}, Dirty: true, Attempt: 4}
	p.Put(c)
	r := p.Clone(f)
	if r != c {
		t.Fatal("clone did not recycle the retired flit")
	}
	if *r != *f {
		t.Fatalf("clone over a recycled flit = %+v, want %+v", *r, *f)
	}
	if gets, news, puts := p.Stats(); gets != 2 || news != 1 || puts != 1 {
		t.Fatalf("stats = gets %d news %d puts %d, want 2 1 1", gets, news, puts)
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
