package network

import (
	"bytes"
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

// decodeMustFail encodes n as it stands, as restoredCopy does, and
// requires a fresh network's decode of the stream to fail as a corrupt
// snapshot rather than restore a state the next Step indexes out of range.
func decodeMustFail(t *testing.T, n *Network, cfg config.Config) {
	t.Helper()
	var buf bytes.Buffer
	enc := snap.NewEncoder(&buf)
	if err := n.Snap(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg, StaticController{Fixed: Mode0}, ControllerNone, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Snap(snap.NewDecoder(&buf)); !snap.IsCorrupt(err) {
		t.Fatalf("err = %v, want a snap.CorruptError", err)
	}
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
