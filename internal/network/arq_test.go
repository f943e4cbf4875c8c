package network

import (
	"bytes"
	"strings"
	"testing"

	"rlnoc/internal/eventlog"
	"rlnoc/internal/traffic"
)

// TestCRCSnooperFeedsResidualStats verifies that adaptive-scheme routers
// (controller kind != none) snoop per-flit CRCs on ECC-bypassed links and
// charge the guilty upstream router's residual-corruption window.
func TestCRCSnooperFeedsResidualStats(t *testing.T) {
	cfg := testConfig(0.02)
	n, err := New(cfg, StaticController{Fixed: Mode0}, ControllerDT, true)
	if err != nil {
		t.Fatal(err)
	}
	n.Stats().SetMeasuring(true)
	events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.004, 4, 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Drive for a while without letting the epoch reset wipe windows:
	// check inside the first epoch.
	i := 0
	residualSeen := false
	for n.Cycle() < int64(cfg.RL.StepCycles)-1 {
		for i < len(events) && events[i].Cycle <= n.Cycle() {
			e := events[i]
			if _, err := n.NewDataPacket(e.Src, e.Dst, e.Flits, e.Cycle); err != nil {
				t.Fatal(err)
			}
			i++
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range n.routers {
		if _, _, residual := r.epochSends(); residual > 0 {
			residualSeen = true
		}
	}
	if !residualSeen {
		t.Fatal("no residual corruption observed by the snoopers at 2% error rate")
	}
}

// TestNoSnooperForStaticSchemes verifies the plain CRC baseline has no
// snooping hardware: residual windows stay zero even with rampant errors.
func TestNoSnooperForStaticSchemes(t *testing.T) {
	cfg := testConfig(0.02)
	n := newNet(t, cfg, Mode0, false) // ControllerNone
	events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.004, 4, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for n.Cycle() < int64(cfg.RL.StepCycles)-1 {
		for i < len(events) && events[i].Cycle <= n.Cycle() {
			e := events[i]
			if _, err := n.NewDataPacket(e.Src, e.Dst, e.Flits, e.Cycle); err != nil {
				t.Fatal(err)
			}
			i++
		}
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for id, r := range n.routers {
		if _, _, residual := r.epochSends(); residual != 0 {
			t.Fatalf("router %d has %d residual corruptions without snoopers", id, residual)
		}
	}
}

// flappingController switches every router between two modes on every
// epoch — the harshest mode-churn the ARQ drain logic must survive. Every
// consult asks router 0 first, so its call starts the next epoch.
type flappingController struct{ a, b Mode }

func (f *flappingController) Decide(id int, _ Observation) Mode {
	if id == 0 {
		f.a, f.b = f.b, f.a
	}
	return f.b
}

// TestModeFlappingLosesNothing drives heavy errors while the controller
// flaps between ECC-off and ECC-on each epoch; the deferred-switch logic
// must neither lose flits nor deadlock.
func TestModeFlappingLosesNothing(t *testing.T) {
	pairs := [][2]Mode{{Mode0, Mode1}, {Mode1, Mode3}, {Mode0, Mode2}, {Mode2, Mode3}}
	for _, pair := range pairs {
		pair := pair
		t.Run(pair[0].String()+"<->"+pair[1].String(), func(t *testing.T) {
			cfg := testConfig(0.02)
			n, err := New(cfg, &flappingController{a: pair[0], b: pair[1]}, ControllerRL, true)
			if err != nil {
				t.Fatal(err)
			}
			n.Stats().SetMeasuring(true)
			events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.003, 4, 6000, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !runTrace(t, n, events, 400_000) {
				t.Fatalf("did not drain: %d data in flight", n.DataInFlight())
			}
			s := n.Stats().Summarize()
			if s.PacketsDelivered != int64(len(events)) {
				t.Fatalf("delivered %d of %d", s.PacketsDelivered, len(events))
			}
			if s.SilentCorruption != 0 {
				t.Fatal("silent corruption")
			}
		})
	}
}

// TestGoBackNOrdering floods one hot link and confirms link-level
// retransmission keeps every packet intact (per-flit CRCs all pass at the
// destinations, which delivery already requires).
func TestGoBackNOrdering(t *testing.T) {
	cfg := testConfig(0.05) // heavy double-bit NACK traffic
	n := newNet(t, cfg, Mode1, true)
	n.Stats().SetMeasuring(true)
	// Neighbor pattern: every node hammers its east neighbor, maximizing
	// per-link streams.
	events, err := traffic.Synthetic(n.Topology(), traffic.Neighbor, 0.01, 4, 4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !runTrace(t, n, events, 400_000) {
		t.Fatal("did not drain")
	}
	s := n.Stats().Summarize()
	if s.LinkRetransmissions == 0 {
		t.Fatal("expected go-back-N activity at 5% error rate")
	}
	if s.PacketsDelivered != int64(len(events)) {
		t.Fatalf("delivered %d of %d", s.PacketsDelivered, len(events))
	}
	// Multi-bit bursts may escape hop-level SECDED (miscorrection), but
	// the end-to-end CRC must catch them and recovery must be total (the
	// SilentCorruption==0 assertion in runTrace-covered tests).
	if s.SilentCorruption != 0 {
		t.Fatal("silent corruption")
	}
}

// TestAdvisoryNACKsVisibleInFeatures confirms the NACK-rate features are
// nonzero for adaptive schemes even with every link in Mode 0 (the
// visibility the snooper exists to provide).
func TestAdvisoryNACKsVisibleInFeatures(t *testing.T) {
	cfg := testConfig(0.05)
	var captured []Observation
	probe := &observationProbe{inner: StaticController{Fixed: Mode0}, out: &captured}
	n, err := New(cfg, probe, ControllerRL, true)
	if err != nil {
		t.Fatal(err)
	}
	events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.005, 4, 4000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !runTrace(t, n, events, 400_000) {
		t.Fatal("did not drain")
	}
	sawNACK := false
	for _, obs := range captured {
		if obs.Features.InputNACKRate > 0 || obs.Features.OutputNACKRate > 0 {
			sawNACK = true
			break
		}
	}
	if !sawNACK {
		t.Fatal("NACK features blind under Mode 0 despite 5% errors")
	}
}

type observationProbe struct {
	inner Controller
	out   *[]Observation
}

func (p *observationProbe) Decide(id int, obs Observation) Mode {
	*p.out = append(*p.out, obs)
	return p.inner.Decide(id, obs)
}

// TestEventLogIntegration runs errored traffic with a recorder attached
// and checks the stream's per-kind counts (its second field) equal the
// collector's.
func TestEventLogIntegration(t *testing.T) {
	cfg := testConfig(0.01)
	n := newNet(t, cfg, Mode1, true)
	n.Stats().SetMeasuring(true)
	var buf bytes.Buffer
	l := eventlog.New(&buf)
	n.SetEventLog(l)
	events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.004, 4, 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !runTrace(t, n, events, 300_000) {
		t.Fatal("did not drain")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	count := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) != 5 {
			t.Fatalf("malformed event line %q", line)
		}
		count[f[1]]++
	}
	s := n.Stats().Summarize()
	for _, c := range []struct {
		kind eventlog.Kind
		want int64
	}{
		{eventlog.KInject, s.PacketsInjected},
		{eventlog.KDeliver, s.PacketsDelivered},
		{eventlog.KRetx, s.LinkRetransmissions},
		{eventlog.KCRCFail, s.CRCFailures},
	} {
		if got := count[c.kind.String()]; got != c.want {
			t.Errorf("log %s %d != stats %d", c.kind, got, c.want)
		}
	}
}
