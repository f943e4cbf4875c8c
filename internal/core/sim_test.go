package core

import (
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/traffic"
)

// ambientC is the thermal grid's ambient temperature, which no tile's
// temperature falls below.
const ambientC = 45.0

// quickConfig is a fast 4x4 setup for end-to-end scheme runs.
func quickConfig() config.Config {
	cfg := config.Small()
	cfg.PretrainCycles = 6000
	cfg.WarmupCycles = 1000
	cfg.MaxCycles = 8000
	cfg.DrainCycles = 20000
	cfg.Fault.BaseErrorRate = 0.005
	return cfg
}

func quickTrace(t *testing.T, cfg config.Config) []traffic.Event {
	t.Helper()
	mesh, err := topologyOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := traffic.Synthetic(mesh, traffic.Uniform, 0.003, cfg.FlitsPerPacket, int64(cfg.MaxCycles), 17)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestRunTraceAllSchemes(t *testing.T) {
	cfg := quickConfig()
	events := quickTrace(t, cfg)
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			res, err := RunTrace(cfg, scheme, events, "unit")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Drained {
				t.Fatal("did not drain")
			}
			if res.FlitsDelivered == 0 || res.MeanLatency <= 0 {
				t.Fatalf("empty result: %+v", res)
			}
			if res.TotalPJ <= 0 || res.DynamicPJ <= 0 || res.StaticPJ <= 0 {
				t.Fatalf("energy accounting dead: %+v", res)
			}
			if res.DynamicPowerW <= 0 || res.EnergyEfficiency <= 0 {
				t.Fatalf("power/efficiency dead: %+v", res)
			}
			if res.ExecutionCycles <= 0 {
				t.Fatal("no execution time")
			}
			if res.Summary.SilentCorruption != 0 {
				t.Fatal("silent corruption")
			}
			if res.MeanTempC < ambientC {
				t.Fatalf("temperature below ambient: %g", res.MeanTempC)
			}
		})
	}
}

func TestSchemeDifferencesUnderErrors(t *testing.T) {
	// The core claim-shape at unit-test scale: with errors present, the
	// ARQ+ECC router must beat plain CRC on latency, and the adaptive
	// schemes must not lose to CRC.
	cfg := quickConfig()
	cfg.Fault.BaseErrorRate = 0.01
	events := quickTrace(t, cfg)
	results := map[Scheme]Result{}
	for _, scheme := range Schemes() {
		res, err := RunTrace(cfg, scheme, events, "shape")
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		results[scheme] = res
	}
	if results[SchemeARQ].MeanLatency >= results[SchemeCRC].MeanLatency {
		t.Errorf("ARQ latency %g >= CRC %g", results[SchemeARQ].MeanLatency, results[SchemeCRC].MeanLatency)
	}
	if results[SchemeRL].MeanLatency >= results[SchemeCRC].MeanLatency {
		t.Errorf("RL latency %g >= CRC %g", results[SchemeRL].MeanLatency, results[SchemeCRC].MeanLatency)
	}
	if results[SchemeARQ].RetransmittedPacketEq >= results[SchemeCRC].RetransmittedPacketEq {
		t.Errorf("ARQ retransmissions %g >= CRC %g",
			results[SchemeARQ].RetransmittedPacketEq, results[SchemeCRC].RetransmittedPacketEq)
	}
}

func TestDTControllerTrainsDuringPretrain(t *testing.T) {
	cfg := quickConfig()
	sim, err := NewSim(cfg, SchemeDT)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Pretrain(); err != nil {
		t.Fatal(err)
	}
	dtc := sim.Controller().(*DTController)
	if dtc.tree == nil {
		t.Fatal("DT not trained after pretrain")
	}
}

func TestRunBenchmarkUnknownName(t *testing.T) {
	if _, err := RunBenchmark(quickConfig(), SchemeCRC, "quake3"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunTraceDeterministic(t *testing.T) {
	cfg := quickConfig()
	events := quickTrace(t, cfg)
	a, err := RunTrace(cfg, SchemeRL, events, "det")
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrace(cfg, SchemeRL, events, "det")
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanLatency != b.MeanLatency || a.TotalPJ != b.TotalPJ ||
		a.Summary.ErrorsInjected != b.Summary.ErrorsInjected {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestMeasureRejectsBadTrace: a phase validates the trace it is handed
// against the fabric before building its injector. An endpoint outside
// the 4x4 fabric used to index past the per-source queues and panic.
func TestMeasureRejectsBadTrace(t *testing.T) {
	cfg := quickConfig()
	cfg.PretrainCycles = 0
	for name, events := range map[string][]traffic.Event{
		"source past the fabric":      {{Cycle: 0, Src: 40, Dst: 1, Flits: 4}},
		"negative source":             {{Cycle: 0, Src: -1, Dst: 1, Flits: 4}},
		"destination past the fabric": {{Cycle: 0, Src: 1, Dst: 16, Flits: 4}},
		"cycles out of order":         {{Cycle: 9, Src: 0, Dst: 1, Flits: 4}, {Cycle: 3, Src: 1, Dst: 2, Flits: 4}},
		"no flits":                    {{Cycle: 0, Src: 0, Dst: 1, Flits: 0}},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := RunTrace(cfg, SchemeCRC, events, name); err == nil {
				t.Fatal("bad trace accepted")
			}
		})
	}
}
