package network

import (
	"bytes"
	"encoding/binary"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/snap"
	"rlnoc/internal/topology"
)

// midPacket returns a 4x4 network whose node 0 transmitter is part-way
// through a packet, so a decode walks a held transmitter state, and which
// restores as it stands.
func midPacket(t *testing.T) (*Network, config.Config) {
	t.Helper()
	cfg := config.Small()
	n, err := New(cfg, StaticController{Fixed: Mode0}, ControllerNone, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.NewDataPacket(0, 5, cfg.FlitsPerPacket, 0); err != nil {
		t.Fatal(err)
	}
	for n.nis[0].curData.pkt == nil {
		if n.Cycle() > 10 {
			t.Fatal("node 0 never started transmitting")
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	restoredCopy(t, n, cfg, ControllerNone)
	return n, cfg
}

// encoded returns n's snapshot stream as it stands.
func encoded(t *testing.T, n *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := snap.NewEncoder(&buf)
	if err := n.Snap(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeMustFail encodes n as it stands and requires a fresh network's
// decode of the stream to fail as a corrupt snapshot rather than restore
// a state the next Step indexes out of range.
func decodeMustFail(t *testing.T, n *Network, cfg config.Config) {
	t.Helper()
	streamMustFail(t, encoded(t, n), cfg)
}

// streamMustFail requires a fresh network's decode of data to fail as a
// corrupt snapshot.
func streamMustFail(t *testing.T, data []byte, cfg config.Config) {
	t.Helper()
	fresh, err := New(cfg, StaticController{Fixed: Mode0}, ControllerNone, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Snap(snap.NewDecoder(bytes.NewReader(data))); !snap.IsCorrupt(err) {
		t.Fatalf("err = %v, want a snap.CorruptError", err)
	}
}

// TestHostilePacketReferenceIsCorrupt: an encoder writes a nil or ghost
// packet reference as -1 and no other negative index, so a stream
// holding -2 (here node 0's transmitter reference) is corrupt. It used
// to restore as nil and re-encode as -1: a stream a decode accepted that
// did not re-encode to itself.
func TestHostilePacketReferenceIsCorrupt(t *testing.T) {
	n, cfg := midPacket(t)
	data := encoded(t, n)
	// NI 0 follows the NIS tag: its data and control queues, each a
	// 4-byte length and a reference per entry, then its data
	// transmitter's packet reference.
	off := bytes.Index(data, []byte("NIS ")) + 4
	for range 2 {
		off += 4 + 8*int(binary.LittleEndian.Uint32(data[off:]))
	}
	if ref := int64(binary.LittleEndian.Uint64(data[off:])); ref < 0 {
		t.Fatalf("offset %d holds reference %d, not node 0's transmitting packet", off, ref)
	}
	ref := int64(-2)
	binary.LittleEndian.PutUint64(data[off:], uint64(ref))
	streamMustFail(t, data, cfg)
}

// TestHostileVCFlagsAreCorrupt: a port's busy and pending-free masks
// hold one bit per VC of its downstream input port, and a port without a
// link has none; a bit beyond them is corrupt, not dropped.
func TestHostileVCFlagsAreCorrupt(t *testing.T) {
	nvc := config.Small().VCsPerPort
	for _, tc := range []struct {
		name string
		set  func(*outputPort)
	}{
		{"busy beyond the VC count", func(p *outputPort) { p.vcBusy |= 1 << nvc }},
		{"pending-free beyond the VC count", func(p *outputPort) { p.vcPendingFree |= 1 << 15 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, cfg := midPacket(t)
			tc.set(n.routers[0].outputs[topology.East])
			decodeMustFail(t, n, cfg)
		})
	}
	t.Run("busy on a port with no link", func(t *testing.T) {
		n, cfg := midPacket(t)
		p := n.routers[0].outputs[topology.West]
		if p.vcs != 0 {
			t.Fatalf("router 0's west port has %d VCs; the test needs a port with no link", p.vcs)
		}
		p.vcBusy |= 1
		decodeMustFail(t, n, cfg)
	})
}

// TestHostileCreditVCIsCorrupt: a credit returning to VC 99 of 4 used to
// restore, and the first Step's processCredits panicked indexing it.
func TestHostileCreditVCIsCorrupt(t *testing.T) {
	for _, vc := range []int{99, -1} {
		n, cfg := midPacket(t)
		p := n.routers[0].outputs[topology.East]
		p.credRet = append(p.credRet, wireCredit{vc: vc, deliver: n.Cycle() + 1})
		decodeMustFail(t, n, cfg)
	}
}

// TestHostileCreditCountIsCorrupt: a port's credit count lies in
// [0, VCDepth]. A count the credit byte wrapped below zero reads 255.
func TestHostileCreditCountIsCorrupt(t *testing.T) {
	for _, count := range []uint8{255, uint8(config.Small().VCDepth + 1)} {
		n, cfg := midPacket(t)
		n.routers[0].outputs[topology.East].credits[1] = count
		decodeMustFail(t, n, cfg)
	}
}

// TestHostileRoundRobinIsCorrupt: a VA or SA pointer is one past the last
// grant's slot, in [0, slots]; the walks take it as their start with one
// subtraction, so a decode rejects anything else.
func TestHostileRoundRobinIsCorrupt(t *testing.T) {
	for _, rr := range []int{-1, 5*config.Small().VCsPerPort + 1} {
		n, cfg := midPacket(t)
		n.routers[0].vaRR[topology.East] = rr
		decodeMustFail(t, n, cfg)
		n, cfg = midPacket(t)
		n.routers[0].saRR[topology.Local] = rr
		decodeMustFail(t, n, cfg)
	}
}

// TestHostileTransmitterVCIsCorrupt: a transmitter holding a packet
// indexes the Local port's VCs with its VC at the next injection.
func TestHostileTransmitterVCIsCorrupt(t *testing.T) {
	for _, vc := range []int{99, -1} {
		n, cfg := midPacket(t)
		n.nis[0].curData.vc = vc
		decodeMustFail(t, n, cfg)
	}
}
