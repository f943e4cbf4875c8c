package core

import (
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/network"
	"rlnoc/internal/rl"
)

func TestPortControllerDecidesPerChannel(t *testing.T) {
	cfg := config.Small()
	c := NewRLPortController(cfg, cfg.Routers())
	obs := network.Observation{
		Features:      rl.Features{TemperatureC: 70},
		WindowLatency: 20,
		ControlPowerW: 0.003,
		Ports: [4]network.PortObservation{
			{Connected: true, Util: 0.05},
			{Connected: true, Util: 0.01, NACKRate: 0.2, ResidualRate: 0.1},
			{Connected: false},
			{Connected: true},
		},
	}
	modes := c.DecidePorts(3, obs)
	for p, m := range modes {
		if m >= network.NumModes {
			t.Fatalf("port %d got invalid mode %v", p, m)
		}
	}
	if modes[2] != network.Mode0 {
		t.Fatal("unconnected port not forced to mode 0")
	}
}

func TestPortControllerDecideIsMaxOfPorts(t *testing.T) {
	cfg := config.Small()
	cfg.RL.Epsilon = 0
	c := NewRLPortController(cfg, 1)
	obs := network.Observation{
		Ports: [4]network.PortObservation{{Connected: true}, {Connected: true}, {Connected: true}, {Connected: true}},
	}
	// Zero Q-table, no exploration: everything mode 0.
	if m := c.Decide(0, obs); m != network.Mode0 {
		t.Fatalf("initial Decide = %v, want mode0", m)
	}
}

func TestPortControllerAgentCount(t *testing.T) {
	cfg := config.Small()
	c := NewRLPortController(cfg, 16)
	if len(c.Agents()) != 64 {
		t.Fatalf("agents = %d, want 64", len(c.Agents()))
	}
	// Shared table by default.
	c.Agents()[0].Step(rl.State{}, 1)
	c.Agents()[0].Step(rl.State{}, 1)
	if c.Agents()[63].Q(rl.State{}, 0) == 0 && c.Agents()[63].Q(rl.State{}, 1) == 0 &&
		c.Agents()[63].Q(rl.State{}, 2) == 0 && c.Agents()[63].Q(rl.State{}, 3) == 0 {
		t.Fatal("shared table not shared across port agents")
	}
}

func TestRLPortSimEndToEnd(t *testing.T) {
	cfg := quickConfig()
	sim, err := NewSim(cfg, SchemeRLPerPort)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Pretrain(); err != nil {
		t.Fatal(err)
	}
	events := quickTrace(t, cfg)
	res, err := sim.Measure(events, "port-ctl")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained || res.FlitsDelivered == 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if res.Summary.SilentCorruption != 0 {
		t.Fatal("silent corruption")
	}
}
