package core

import (
	"errors"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/network"
	"rlnoc/internal/rl"
)

func stateProbe() rl.State { return rl.State{Temp: 2, OutLink: 1} }

func TestNewStaticSimAllModes(t *testing.T) {
	cfg := quickConfig()
	for m := network.Mode0; m < network.NumModes; m++ {
		sim, err := NewStaticSim(cfg, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if sim.Network() == nil {
			t.Fatalf("%v: nil network", m)
		}
		// The fixed mode must actually be applied (unless the variant
		// lacks ECC hardware, i.e. mode 0).
		for i := 0; i < cfg.RL.StepCycles+1; i++ {
			if err := sim.Network().Step(); err != nil {
				t.Fatal(err)
			}
		}
		for id, got := range sim.Network().Modes() {
			if got != m {
				t.Fatalf("%v: router %d runs %v", m, id, got)
			}
		}
	}
}

func TestNewStaticSimRejectsBadConfig(t *testing.T) {
	cfg := quickConfig()
	cfg.Width = 0
	if _, err := NewStaticSim(cfg, network.Mode1); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSimObserverDuringMeasure(t *testing.T) {
	cfg := quickConfig()
	sim, err := NewSim(cfg, SchemeARQ)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Pretrain(); err != nil {
		t.Fatal(err)
	}
	var snaps []Snapshot
	sim.SetObserver(500, func(s Snapshot) { snaps = append(snaps, s) })
	res, err := sim.Measure(quickTrace(t, cfg), "obs")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained {
		t.Fatal("did not drain")
	}
	if len(snaps) == 0 {
		t.Fatal("observer never fired")
	}
	last := snaps[len(snaps)-1]
	if len(last.Modes) != cfg.Routers() || len(last.TempsC) != cfg.Routers() {
		t.Fatalf("snapshot vectors wrong length: %d/%d", len(last.Modes), len(last.TempsC))
	}
	total := 0
	for _, c := range last.ModeCounts {
		total += c
	}
	if total != cfg.Routers() {
		t.Fatalf("mode counts sum %d", total)
	}
	for _, temp := range last.TempsC {
		if temp < cfg.Thermal.AmbientC || temp > 200 {
			t.Fatalf("implausible snapshot temperature %g", temp)
		}
	}
}

// TestObserverAbortStopsAtObservedCycle: an Abort called from an observer
// ends the run before the next Step, at the cycle the observer saw. Seen
// only by the every-256-iterations control poll, it used to run 255 more
// cycles and call the observer 255 more times.
func TestObserverAbortStopsAtObservedCycle(t *testing.T) {
	cfg := quickConfig()
	cfg.PretrainCycles = 0
	sim, err := NewSim(cfg, SchemeRL)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("observed")
	var seen []int64
	sim.SetObserver(1, func(s Snapshot) {
		seen = append(seen, s.Cycle)
		sim.Abort(stop)
	})
	_, err = sim.Measure(quickTrace(t, cfg), "abort")
	if !IsAbort(err) || !errors.Is(err, stop) {
		t.Fatalf("err = %v, want the observer's abort", err)
	}
	if len(seen) != 1 || sim.Network().Cycle() != seen[0] {
		t.Fatalf("observer saw cycles %v; the run stopped at cycle %d", seen, sim.Network().Cycle())
	}
}

func TestRunBenchmarkSmoke(t *testing.T) {
	cfg := quickConfig()
	res, err := RunBenchmark(cfg, SchemeCRC, "swaptions")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained || res.Benchmark != "swaptions" {
		t.Fatalf("bad result: %+v", res)
	}
	if res.Summary.P95Latency < res.Summary.P50Latency {
		t.Fatalf("percentiles inverted: %+v", res.Summary)
	}
}

func TestRunBenchmarkInvalidConfig(t *testing.T) {
	cfg := quickConfig()
	cfg.VCsPerPort = 1
	if _, err := RunBenchmark(cfg, SchemeCRC, "swaptions"); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestPortControllerPerRouterTables(t *testing.T) {
	cfg := config.Small()
	cfg.RL.SharedTable = false
	c := NewRLPortController(cfg, 2)
	if len(c.Agents()) != 8 {
		t.Fatalf("agents = %d, want 8", len(c.Agents()))
	}
	// Private tables: learning through one agent must not leak.
	for i := 0; i < 20; i++ {
		c.Agents()[0].Step(stateProbe(), 5)
	}
	leaked := false
	for a := 0; a < 4; a++ {
		if c.Agents()[7].Q(stateProbe(), a) != 0 {
			leaked = true
		}
	}
	if leaked {
		t.Fatal("per-router port tables leaked")
	}
}

func TestPortControllerSetEpsilonAndPolicyRoundTrip(t *testing.T) {
	cfg := config.Small()
	c := NewRLPortController(cfg, 2)
	c.SetEpsilon(0) // must not panic; greedy afterwards
	obs := network.Observation{Ports: [4]network.PortObservation{
		{Connected: true}, {Connected: true}, {Connected: true}, {Connected: true}}}
	m1 := c.DecidePorts(0, obs)
	m2 := c.DecidePorts(0, obs)
	// With zero exploration and a stable table, consecutive decisions on
	// identical observations agree.
	if m1 != m2 {
		t.Fatalf("eps=0 port decisions diverged: %v vs %v", m1, m2)
	}
}
