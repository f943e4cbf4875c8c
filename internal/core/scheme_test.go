package core

import (
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/network"
	"rlnoc/internal/rl"
)

func TestParseScheme(t *testing.T) {
	names := AllSchemes()
	for m := network.Mode0; m < network.NumModes; m++ {
		names = append(names, StaticScheme(m))
	}
	for _, s := range names {
		got, err := ParseScheme(string(s))
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s, got, err)
		}
	}
	// The static arms keep the names their Results have always carried.
	if got := StaticScheme(network.Mode1); got != "static-mode1-ecc" {
		t.Errorf("StaticScheme(Mode1) = %q", got)
	}
	if _, err := ParseScheme("magic"); err == nil {
		t.Error("unknown scheme parsed")
	}
}

func TestBuildControllerWiring(t *testing.T) {
	cfg := config.Small()
	cases := []struct {
		scheme Scheme
		kind   network.ControllerKind
		hasECC bool
	}{
		{SchemeCRC, network.ControllerNone, false},
		{SchemeARQ, network.ControllerNone, true},
		{SchemeDT, network.ControllerDT, true},
		{SchemeRL, network.ControllerRL, true},
		{StaticScheme(network.Mode0), network.ControllerNone, false},
		{StaticScheme(network.Mode3), network.ControllerNone, true},
	}
	for _, tc := range cases {
		ctrl, kind, hasECC, err := buildController(tc.scheme, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.scheme, err)
		}
		if ctrl == nil || kind != tc.kind || hasECC != tc.hasECC {
			t.Errorf("%s: kind=%v ecc=%v", tc.scheme, kind, hasECC)
		}
	}
	if _, _, _, err := buildController("bogus", cfg); err == nil {
		t.Error("bogus scheme accepted")
	}
}

func TestStaticSchemeModes(t *testing.T) {
	cfg := config.Small()
	crcCtrl, _, _, _ := buildController(SchemeCRC, cfg)
	if m := crcCtrl.Decide(0, network.Observation{}); m != network.Mode0 {
		t.Errorf("CRC decided %v", m)
	}
	arqCtrl, _, _, _ := buildController(SchemeARQ, cfg)
	if m := arqCtrl.Decide(0, network.Observation{}); m != network.Mode1 {
		t.Errorf("ARQ decided %v", m)
	}
}

func TestRLControllerDecidesValidModes(t *testing.T) {
	cfg := config.Small()
	c := NewRLController(cfg, cfg.Routers())
	for i := 0; i < 200; i++ {
		obs := network.Observation{
			Features:      rl.Features{TemperatureC: 60 + float64(i%40), InputNACKRate: float64(i%10) / 10},
			WindowLatency: 30 + float64(i%100),
			ControlPowerW: 0.002,
		}
		m := c.Decide(i%cfg.Routers(), obs)
		if m >= network.NumModes {
			t.Fatalf("invalid mode %v", m)
		}
	}
}

func TestRLControllerModeMask(t *testing.T) {
	cfg := config.Small()
	cfg.RL.ModeMask = 0b0011 // only modes 0 and 1
	c := NewRLController(cfg, 1)
	for i := 0; i < 500; i++ {
		obs := network.Observation{
			Features:      rl.Features{TemperatureC: 95, InputNACKRate: 0.5},
			WindowLatency: 100,
			ControlPowerW: 0.003,
		}
		if m := c.Decide(0, obs); m > network.Mode1 {
			t.Fatalf("masked controller picked %v", m)
		}
	}
}

func TestRLControllerSharedVsPerRouter(t *testing.T) {
	cfg := config.Small()
	cfg.RL.SharedTable = true
	shared := NewRLController(cfg, 4)
	cfg.RL.SharedTable = false
	private := NewRLController(cfg, 4)
	if len(shared.agents) != 4 || len(private.agents) != 4 {
		t.Fatal("agent count wrong")
	}
	// A TD update through agent 0 must be visible to agent 1 only in the
	// shared variant.
	obs := network.Observation{WindowLatency: 10, ControlPowerW: 0.001}
	for i := 0; i < 10; i++ {
		shared.Decide(0, obs)
		private.Decide(0, obs)
	}
	s := rl.State{}
	sharedVisible := false
	for a := 0; a < rl.NumActions; a++ {
		if shared.agents[1].Q(s, a) != 0 {
			sharedVisible = true
		}
		if private.agents[1].Q(s, a) != 0 {
			t.Fatal("per-router table leaked across agents")
		}
	}
	if !sharedVisible {
		t.Fatal("shared table not shared")
	}
}

func TestDTControllerLifecycle(t *testing.T) {
	cfg := config.Small()
	c := NewDTController(cfg, 2)
	// While collecting: modes in {0,1,2} and samples accumulate.
	for i := 0; i < 100; i++ {
		obs := network.Observation{
			Features:          rl.Features{TemperatureC: 50 + float64(i%50), OutputLinkUtil: float64(i%4) / 10},
			MeasuredErrorRate: float64(i%20) / 100,
		}
		m := c.Decide(i%2, obs)
		if m > network.Mode2 {
			t.Fatalf("collection phase picked %v", m)
		}
	}
	if len(c.samples) < 90 {
		t.Fatalf("only %d samples collected", len(c.samples))
	}
	if c.tree != nil {
		t.Fatal("tree exists before training")
	}
	if err := c.FinishTraining(); err != nil {
		t.Fatal(err)
	}
	if c.tree == nil {
		t.Fatal("no tree after training")
	}
	// Frozen: decisions are deterministic functions of features.
	obs := network.Observation{Features: rl.Features{TemperatureC: 90, OutputNACKRate: 0.2}}
	m1 := c.Decide(0, obs)
	m2 := c.Decide(0, obs)
	if m1 != m2 {
		t.Fatal("frozen DT is nondeterministic")
	}
	// FinishTraining is idempotent.
	if err := c.FinishTraining(); err != nil {
		t.Fatal(err)
	}
}

func TestDTControllerFailsWithoutSamples(t *testing.T) {
	c := NewDTController(config.Small(), 1)
	if err := c.FinishTraining(); err == nil {
		t.Fatal("trained on zero samples")
	}
}
