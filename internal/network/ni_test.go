package network

import (
	"testing"

	"rlnoc/internal/coding"
	"rlnoc/internal/flit"
	"rlnoc/internal/topology"
)

func newTestNet(t *testing.T) *Network {
	t.Helper()
	return newNet(t, testConfig(0), Mode0, false)
}

func TestNIInjectStreamsOnePacket(t *testing.T) {
	n := newTestNet(t)
	ni := n.nis[0]
	pkt, err := n.NewDataPacket(0, 5, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ni.dataQueue) != 1 || ni.curData.pkt != nil {
		t.Fatalf("%d packets queued (one in flight: %v), want one queued", len(ni.dataQueue), ni.curData.pkt != nil)
	}
	// One flit per cycle into the local input port.
	router := n.routers[0]
	for c := int64(1); c <= 4; c++ {
		ni.inject(c)
	}
	total := 0
	for v := 0; v < router.nvc; v++ {
		total += int(router.vc(topology.Local, v).n)
	}
	if total != 4 {
		t.Fatalf("injected %d flits, want 4", total)
	}
	if pkt.FirstInjectedAt != 1 {
		t.Fatalf("FirstInjectedAt = %d, want 1", pkt.FirstInjectedAt)
	}
	if len(ni.dataQueue) != 0 || ni.curData.pkt != nil {
		t.Fatalf("after streaming: %d packets queued, one in flight: %v", len(ni.dataQueue), ni.curData.pkt != nil)
	}
	// All flits of one packet share a VC, in order.
	var vcUsed *inputVC
	for v := 0; v < router.nvc; v++ {
		if vc := router.vc(topology.Local, v); !vc.empty() {
			if vcUsed != nil {
				t.Fatal("packet spread across VCs")
			}
			vcUsed = vc
		}
	}
	for i := 0; i < int(vcUsed.n); i++ {
		if f := *vcUsed.at(router, i); f.Seq != i {
			t.Fatalf("flit %d out of order (seq %d)", i, f.Seq)
		}
	}
}

func TestNIInjectRespectsBufferDepth(t *testing.T) {
	cfg := testConfig(0)
	cfg.VCDepth = 2
	n := newNet(t, cfg, Mode0, false)
	ni := n.nis[0]
	if _, err := n.NewDataPacket(0, 5, 4, 0); err != nil {
		t.Fatal(err)
	}
	for c := int64(1); c <= 10; c++ {
		ni.inject(c) // no drain: only VCDepth flits can enter
	}
	total := 0
	for v := 0; v < n.cfg.VCsPerPort; v++ {
		total += int(n.routers[0].vc(topology.Local, v).n)
	}
	if total != 2 {
		t.Fatalf("buffered %d flits with depth 2", total)
	}
}

func TestNIControlPriority(t *testing.T) {
	n := newTestNet(t)
	ni := n.nis[0]
	if _, err := n.NewDataPacket(0, 5, 4, 0); err != nil {
		t.Fatal(err)
	}
	// Queue a control packet as a CRC failure would.
	dummy := n.buildPacket(flit.Data, 3, 0, 4, 0, 0)
	n.sendE2ENack(0, dummy, 0)
	ni.inject(1)
	// The control flit must have gone first, into a control-class VC.
	lo, _ := n.vcRange(true)
	found := false
	for v := lo; v < n.cfg.VCsPerPort; v++ {
		if !n.routers[0].vc(topology.Local, v).empty() {
			found = true
		}
	}
	if !found {
		t.Fatal("control packet did not take priority / control VC")
	}
}

func TestNIReassemblyDetectsCorruption(t *testing.T) {
	n := newTestNet(t)
	pkt := n.buildPacket(flit.Data, 3, 0, 2, 0, 0)
	n.nis[3].replay[pkt.ID] = pkt
	n.dataInFlight++
	ni := n.nis[0] // destination

	f0 := &flit.Flit{Packet: pkt, Seq: 0, Type: flit.Head}
	f0.RestorePayload()
	f1 := &flit.Flit{Packet: pkt, Seq: 1, Type: flit.Tail}
	f1.RestorePayload()
	f1.Payload[0] ^= 1 << 9 // in-flight corruption
	f1.Dirty = true         // fault injection always marks flipped payloads

	n.stats.SetMeasuring(true)
	ni.receive(f0, 100)
	ni.receive(f1, 101)
	if n.stats.Summarize().CRCFailures != 1 {
		t.Fatal("corrupted packet passed the CRC check")
	}
	// A retransmission request (control packet) must be queued.
	if n.ctrlInFlight != 1 || len(ni.ctrlQueue) != 1 {
		t.Fatalf("no E2E NACK queued (ctrlInFlight=%d)", n.ctrlInFlight)
	}
	if ni.ctrlQueue[0].RefID != pkt.ID || ni.ctrlQueue[0].Dst != 3 {
		t.Fatal("NACK misaddressed")
	}
	// The packet must not have been delivered.
	if n.dataInFlight != 1 {
		t.Fatal("corrupted packet delivered")
	}
}

func TestNIReassemblyDeliversCleanPacket(t *testing.T) {
	n := newTestNet(t)
	pkt := n.buildPacket(flit.Data, 3, 0, 2, 10, 0)
	pkt.FirstInjectedAt = 12
	n.nis[3].replay[pkt.ID] = pkt
	n.dataInFlight++
	ni := n.nis[0]
	n.stats.SetMeasuring(true)
	for seq := 0; seq < 2; seq++ {
		f := &flit.Flit{Packet: pkt, Seq: seq, Type: pkt.TypeOf(seq)}
		f.RestorePayload()
		ni.receive(f, int64(100+seq))
	}
	s := n.stats.Summarize()
	if s.PacketsDelivered != 1 || s.FlitsDelivered != 2 {
		t.Fatalf("delivery not recorded: %+v", s)
	}
	if s.MeanLatency != 91 { // 101 - 10
		t.Fatalf("latency %g, want 91", s.MeanLatency)
	}
	if n.dataInFlight != 0 {
		t.Fatal("in-flight count not decremented")
	}
	if _, still := n.nis[3].replay[pkt.ID]; still {
		t.Fatal("replay entry not freed")
	}
}

func TestHandleE2ENackReinjects(t *testing.T) {
	n := newTestNet(t)
	pkt, err := n.NewDataPacket(2, 7, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	ni := n.nis[2]
	// Drain the data queue as if the packet were sent.
	ni.dataQueue = nil
	n.stats.SetMeasuring(true)
	ni.handleE2ENack(pkt.ID, 500)
	if pkt.Retransmissions != 1 {
		t.Fatalf("retransmissions = %d, want 1", pkt.Retransmissions)
	}
	if len(ni.dataQueue) != 1 || ni.dataQueue[0] != pkt {
		t.Fatal("packet not re-queued")
	}
	if n.stats.Summarize().SourceRetransmissions != 1 {
		t.Fatal("source retransmission not counted")
	}
	// Unknown reference: counted as anomaly, no crash.
	ni.handleE2ENack(99999, 501)
	if n.stats.SilentCorruption == 0 {
		t.Fatal("stale NACK not flagged")
	}
}

func TestPacketPayloadCRCsConsistent(t *testing.T) {
	n := newTestNet(t)
	pkt := n.buildPacket(flit.Data, 0, 1, 4, 0, 0)
	for seq := 0; seq < 4; seq++ {
		words := pkt.Payload[seq*flit.WordsPerFlit : (seq+1)*flit.WordsPerFlit]
		if coding.CRC16Words(words) != pkt.CRCs[seq] {
			t.Fatalf("flit %d CRC inconsistent at creation", seq)
		}
	}
}
