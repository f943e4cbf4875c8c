package network

import (
	"math"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/power"
	"rlnoc/internal/stats"
	"rlnoc/internal/thermal"
	"rlnoc/internal/topology"
	"rlnoc/internal/traffic"
)

// testConfig returns a small mesh configuration with a given base error
// rate.
func testConfig(errRate float64) config.Config {
	cfg := config.Small()
	cfg.Fault.BaseErrorRate = errRate
	return cfg
}

func newNet(t *testing.T, cfg config.Config, mode Mode, hasECC bool) *Network {
	t.Helper()
	n, err := New(cfg, StaticController{Fixed: mode}, ControllerNone, hasECC)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// runTrace injects events at their cycles and steps until drained or the
// cycle cap; it returns whether the network drained.
func runTrace(t *testing.T, n *Network, events []traffic.Event, cap int64) bool {
	t.Helper()
	i := 0
	for n.Cycle() < cap {
		for i < len(events) && events[i].Cycle <= n.Cycle() {
			e := events[i]
			if _, err := n.NewDataPacket(e.Src, e.Dst, e.Flits, e.Cycle); err != nil {
				t.Fatalf("inject event %d: %v", i, err)
			}
			i++
		}
		if err := n.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
		if i >= len(events) && n.Drained() {
			return true
		}
	}
	return i >= len(events) && n.Drained()
}

func TestNewValidates(t *testing.T) {
	cfg := testConfig(0)
	if _, err := New(cfg, nil, ControllerNone, false); err == nil {
		t.Error("nil controller accepted")
	}
	bad := cfg
	bad.Width = 0
	if _, err := New(bad, StaticController{}, ControllerNone, false); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSinglePacketZeroLoadLatency(t *testing.T) {
	cfg := testConfig(0)
	n := newNet(t, cfg, Mode0, false)
	n.Stats().SetMeasuring(true)
	// Corner to corner on the 4x4 mesh: 6 hops.
	if _, err := n.NewDataPacket(0, 15, 4, 0); err != nil {
		t.Fatal(err)
	}
	for !n.Drained() && n.Cycle() < 1000 {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !n.Drained() {
		t.Fatal("packet never delivered")
	}
	s := n.Stats().Summarize()
	if s.PacketsDelivered != 1 || s.FlitsDelivered != 4 {
		t.Fatalf("delivered %d packets / %d flits", s.PacketsDelivered, s.FlitsDelivered)
	}
	// Zero-load: ~4 cycles per hop across 7 routers plus serialization
	// and NI crossings. Anything wildly larger means pipeline stalls.
	if s.MeanLatency < 20 || s.MeanLatency > 60 {
		t.Fatalf("zero-load latency = %g cycles, expected within [20,60]", s.MeanLatency)
	}
	if s.SourceRetransmissions != 0 || s.LinkRetransmissions != 0 {
		t.Fatal("retransmissions without errors")
	}
	if s.SilentCorruption != 0 {
		t.Fatal("silent corruption")
	}
}

func TestAllPacketsDeliveredNoErrors(t *testing.T) {
	for _, mode := range []Mode{Mode0, Mode1, Mode2, Mode3} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			cfg := testConfig(0)
			n := newNet(t, cfg, mode, true)
			n.Stats().SetMeasuring(true)
			events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.005, 4, 3000, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !runTrace(t, n, events, 60_000) {
				t.Fatalf("did not drain: %d data in flight", n.DataInFlight())
			}
			s := n.Stats().Summarize()
			if s.PacketsDelivered != int64(len(events)) {
				t.Fatalf("delivered %d of %d packets", s.PacketsDelivered, len(events))
			}
			if s.CRCFailures != 0 || s.ErrorsInjected != 0 {
				t.Fatalf("phantom errors: %+v", s)
			}
			if s.SilentCorruption != 0 {
				t.Fatal("silent corruption")
			}
		})
	}
}

func TestCRCSchemeRecoversFromErrors(t *testing.T) {
	cfg := testConfig(0.01) // harsh: 1% per-flit per-hop
	n := newNet(t, cfg, Mode0, false)
	n.Stats().SetMeasuring(true)
	events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.003, 4, 4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !runTrace(t, n, events, 200_000) {
		t.Fatalf("did not drain: %d in flight", n.DataInFlight())
	}
	s := n.Stats().Summarize()
	if s.ErrorsInjected == 0 {
		t.Fatal("no errors injected at 1% rate")
	}
	if s.CRCFailures == 0 || s.SourceRetransmissions == 0 {
		t.Fatalf("CRC path unused: %+v", s)
	}
	if s.PacketsDelivered != int64(len(events)) {
		t.Fatalf("delivered %d of %d", s.PacketsDelivered, len(events))
	}
	if s.SilentCorruption != 0 {
		t.Fatal("silent corruption slipped through")
	}
	// Every delivered packet passed CRC, so link ARQ must be idle.
	if s.LinkRetransmissions != 0 || s.ECCCorrections != 0 {
		t.Fatal("ECC machinery active in CRC scheme")
	}
}

func TestARQCorrectsAndRetransmits(t *testing.T) {
	cfg := testConfig(0.01)
	n := newNet(t, cfg, Mode1, true)
	n.Stats().SetMeasuring(true)
	events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.003, 4, 4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !runTrace(t, n, events, 200_000) {
		t.Fatalf("did not drain: %d in flight", n.DataInFlight())
	}
	s := n.Stats().Summarize()
	if s.ECCCorrections == 0 {
		t.Fatal("SECDED never corrected")
	}
	if s.ECCDetections == 0 || s.LinkRetransmissions == 0 {
		t.Fatalf("double-bit path unused: %+v", s)
	}
	if s.PacketsDelivered != int64(len(events)) {
		t.Fatalf("delivered %d of %d", s.PacketsDelivered, len(events))
	}
	// Per-hop SECDED absorbs most errors, but multi-bit bursts defeat it
	// (miscorrection passes the hop silently) and fall through to the
	// end-to-end CRC — they must stay a small minority and always recover.
	if s.CRCFailures > s.ErrorsInjected/5 {
		t.Fatalf("too many E2E escapes under ARQ+ECC: %d of %d errors",
			s.CRCFailures, s.ErrorsInjected)
	}
	if s.SilentCorruption != 0 {
		t.Fatal("silent corruption")
	}
}

func TestARQBeatsCRCLatencyUnderErrors(t *testing.T) {
	cfg := testConfig(0.02)
	events, err := traffic.Synthetic(mustMesh(t, cfg), traffic.Uniform, 0.003, 4, 4000, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode Mode, ecc bool) float64 {
		n := newNet(t, cfg, mode, ecc)
		n.Stats().SetMeasuring(true)
		if !runTrace(t, n, events, 400_000) {
			t.Fatalf("%v did not drain", mode)
		}
		return n.Stats().MeanLatency()
	}
	crc := run(Mode0, false)
	arq := run(Mode1, true)
	if arq >= crc {
		t.Fatalf("ARQ latency %g not better than CRC %g at 2%% error", arq, crc)
	}
}

func TestMode3SuppressesRetransmissions(t *testing.T) {
	cfg := testConfig(0.05) // brutal error rate
	n := newNet(t, cfg, Mode3, true)
	n.Stats().SetMeasuring(true)
	events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.002, 4, 3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !runTrace(t, n, events, 400_000) {
		t.Fatalf("did not drain: %d in flight", n.DataInFlight())
	}
	s := n.Stats().Summarize()
	// Timing relaxation scales the error probability by 1e-3; with a few
	// hundred packets, retransmissions should be (near) zero.
	if s.LinkRetransmissions > 5 || s.SourceRetransmissions > 2 {
		t.Fatalf("mode 3 still retransmitting: %+v", s)
	}
	if s.PacketsDelivered != int64(len(events)) {
		t.Fatalf("delivered %d of %d", s.PacketsDelivered, len(events))
	}
}

func TestMode2PreRetransmits(t *testing.T) {
	cfg := testConfig(0.02)
	n := newNet(t, cfg, Mode2, true)
	n.Stats().SetMeasuring(true)
	events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.002, 4, 3000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if !runTrace(t, n, events, 400_000) {
		t.Fatal("did not drain")
	}
	s := n.Stats().Summarize()
	if s.PreRetransmissions == 0 {
		t.Fatal("mode 2 never pre-retransmitted")
	}
	if s.PacketsDelivered != int64(len(events)) {
		t.Fatalf("delivered %d of %d", s.PacketsDelivered, len(events))
	}
}

// TestMode2DuplicatesDropApart: on a fault-free fabric every Mode 2 copy
// trails an original that got through, so the sequence screen drops each
// as mode2-dup and nothing as stale-seq; Mode 1 sends no copies, and on a
// clean link go-back-N never breaks sequence, so it drops neither. At the
// screen itself, only a copy of an already accepted sequence number is a
// mode2-dup: a copy racing ahead of a go-back-N resend, or a resent
// original, is a sequence break.
func TestMode2DuplicatesDropApart(t *testing.T) {
	n := newNet(t, testConfig(0), Mode2, true)
	r := n.routers[0]
	p := r.outputs[topology.East]
	p.expectSeq = 5
	for _, tc := range []struct {
		seq    uint64
		isDup  bool
		reason stats.DropReason
	}{{3, true, stats.DropDuplicate}, {7, true, stats.DropStaleSeq}, {3, false, stats.DropStaleSeq}} {
		before := n.Stats().DropCounts()[tc.reason]
		n.receiveOnLink(r, p, &wireFlit{f: n.fpool.Get(), seq: tc.seq, isDup: tc.isDup})
		if n.Stats().DropCounts()[tc.reason] != before+1 {
			t.Errorf("seq %d (dup %v) at expected seq 5: not counted as %s", tc.seq, tc.isDup, tc.reason)
		}
	}

	for _, tc := range []struct {
		mode Mode
		dups bool
	}{{Mode2, true}, {Mode1, false}} {
		n := newNet(t, testConfig(0), tc.mode, true)
		events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.004, 4, 3000, 13)
		if err != nil {
			t.Fatal(err)
		}
		if !runTrace(t, n, events, 100_000) {
			t.Fatalf("mode %d: did not drain", tc.mode)
		}
		stale, dup := n.Stats().DropCounts()[stats.DropStaleSeq], n.Stats().DropCounts()[stats.DropDuplicate]
		if stale != 0 || (dup > 0) != tc.dups {
			t.Errorf("mode %d: stale-seq=%d mode2-dup=%d, want stale-seq 0 and mode2-dup > 0 = %v",
				tc.mode, stale, dup, tc.dups)
		}
	}
}

func mustMesh(t *testing.T, cfg config.Config) topology.Topology {
	t.Helper()
	m, err := topology.NewMesh(cfg.Width, cfg.Height)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDeterminismPerSeed(t *testing.T) {
	run := func(seed int64) (int64, float64, float64) {
		cfg := testConfig(0.01)
		cfg.Seed = seed
		n := newNet(t, cfg, Mode1, true)
		n.Stats().SetMeasuring(true)
		events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.003, 4, 2000, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !runTrace(t, n, events, 200_000) {
			t.Fatal("did not drain")
		}
		return n.Stats().Summarize().ErrorsInjected, n.Stats().MeanLatency(), n.Meter().TotalPJ()
	}
	e1, l1, p1 := run(42)
	e2, l2, p2 := run(42)
	e3, l3, _ := run(43)
	if e1 != e2 || l1 != l2 || p1 != p2 {
		t.Fatalf("same seed diverged: (%d,%g,%g) vs (%d,%g,%g)", e1, l1, p1, e2, l2, p2)
	}
	if e1 == e3 && l1 == l3 {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestEnergyAccountingActive(t *testing.T) {
	cfg := testConfig(0)
	n := newNet(t, cfg, Mode1, true)
	events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.003, 4, 2000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !runTrace(t, n, events, 100_000) {
		t.Fatal("did not drain")
	}
	m := n.Meter()
	if m.TotalDynamicPJ() <= 0 {
		t.Fatal("no dynamic energy recorded")
	}
	if m.TotalStaticPJ() <= 0 {
		t.Fatal("no static energy recorded")
	}
}

// TestTorusWrapLinkChargesItsSpan sends one packet over the 4x4 torus's
// west wrap link from (0,0) to (3,0), and the same packet over the mesh's
// one-pitch east link from (0,0) to (1,0): the wrap wire spans three tile
// pitches, so each flit must charge two pitches of link energy more.
func TestTorusWrapLinkChargesItsSpan(t *testing.T) {
	const src, flits, pitches = 0, 4, 3
	energy := func(topo string, dir topology.Direction, dst int) (float64, power.Params) {
		cfg := testConfig(0)
		cfg.Topology = topo
		n := newNet(t, cfg, Mode0, false)
		if nb, _ := n.Topology().Neighbor(src, dir); nb != dst {
			t.Fatalf("%s: router %d's %v neighbor is %d, want %d", topo, src, dir, nb, dst)
		}
		if _, err := n.NewDataPacket(src, dst, flits, 0); err != nil {
			t.Fatal(err)
		}
		for !n.Drained() && n.Cycle() < 1000 {
			if err := n.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if !n.Drained() {
			t.Fatalf("%s: packet never delivered", topo)
		}
		return n.Meter().TotalDynamicPJ(), n.Meter().Params()
	}
	wrap, p := energy("torus", topology.West, 3)
	mesh, _ := energy("mesh", topology.East, 1)
	if got, want := wrap-mesh, float64((pitches-1)*flits)*p.LinkPJ; math.Abs(got-want) > 1e-9 {
		t.Fatalf("wrap link costs %g pJ more than a mesh link, want %g (%d flits x %d extra pitches)", got, want, flits, pitches-1)
	}
}

func TestThermalCoupling(t *testing.T) {
	cfg := testConfig(0)
	n := newNet(t, cfg, Mode0, false)
	events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.02, 4, 20_000, 21)
	if err != nil {
		t.Fatal(err)
	}
	if !runTrace(t, n, events, 200_000) {
		t.Fatal("did not drain")
	}
	// Sustained traffic must heat tiles above their initial temperature.
	if n.Thermal().MeanTemperature() <= thermal.InitialC {
		t.Fatalf("mean temperature %g did not rise above initial %g",
			n.Thermal().MeanTemperature(), thermal.InitialC)
	}
}

func TestControlPacketsUseControlVCs(t *testing.T) {
	// Indirect but effective: with heavy errors in CRC mode, end-to-end
	// NACK packets must get through even under data congestion; if they
	// shared data VCs the drain would take far longer or wedge.
	cfg := testConfig(0.03)
	n := newNet(t, cfg, Mode0, false)
	n.Stats().SetMeasuring(true)
	events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.005, 4, 3000, 17)
	if err != nil {
		t.Fatal(err)
	}
	if !runTrace(t, n, events, 500_000) {
		t.Fatalf("did not drain: %d data, %d ctrl in flight", n.dataInFlight, n.ctrlInFlight)
	}
	if n.Stats().Summarize().SilentCorruption != 0 {
		t.Fatal("silent corruption")
	}
}

func TestModesExposedAndApplied(t *testing.T) {
	cfg := testConfig(0)
	n := newNet(t, cfg, Mode2, true)
	for i := 0; i < cfg.RL.StepCycles+1; i++ {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for id, m := range n.Modes() {
		if m != Mode2 {
			t.Fatalf("router %d mode %v, want mode2", id, m)
		}
	}
}

func TestCRCBaselineForcesMode0(t *testing.T) {
	// Even if a buggy controller asks for Mode 3, a CRC-scheme router
	// (hasECC=false) has no hardware to enable.
	cfg := testConfig(0)
	n := newNet(t, cfg, Mode3, false)
	for i := 0; i < cfg.RL.StepCycles+1; i++ {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for id, m := range n.Modes() {
		if m != Mode0 {
			t.Fatalf("router %d mode %v, want forced mode0", id, m)
		}
	}
}

func TestNewDataPacketValidates(t *testing.T) {
	n := newNet(t, testConfig(0), Mode0, false)
	if _, err := n.NewDataPacket(0, 0, 4, 0); err == nil {
		t.Error("self-send accepted")
	}
	if _, err := n.NewDataPacket(-1, 3, 4, 0); err == nil {
		t.Error("negative src accepted")
	}
	if _, err := n.NewDataPacket(0, 99, 4, 0); err == nil {
		t.Error("out-of-range dst accepted")
	}
	if _, err := n.NewDataPacket(0, 1, 0, 0); err == nil {
		t.Error("zero flits accepted")
	}
}

func TestModeProperties(t *testing.T) {
	if Mode0.ECCOn() || !Mode1.ECCOn() || !Mode2.ECCOn() || !Mode3.ECCOn() {
		t.Error("ECCOn wrong")
	}
	if Mode0.LinkOccupancy() != 1 || Mode2.LinkOccupancy() != 2 || Mode3.LinkOccupancy() != 3 {
		t.Error("occupancy wrong")
	}
	if Mode0.ExtraLatency() != 0 || Mode1.ExtraLatency() != 1 || Mode3.ExtraLatency() != 3 {
		t.Error("extra latency wrong")
	}
	if Mode0.String() == "" || Mode(9).String() == "" {
		t.Error("mode names empty")
	}
}
