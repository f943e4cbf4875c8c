package rlnoc

// Exact scheme identities at zero faults. With no error ever injected the
// reactive CRC baseline and the static bypass arm drive the same datapath
// (no ECC stage, end-to-end CRC only), and so do ARQ+ECC and the static
// ECC arm: their runs must agree to the cycle. A static arm's timing
// does not depend on VC depth either, once a buffer holds a whole packet.

import (
	"testing"

	"rlnoc/internal/core"
	"rlnoc/internal/network"
)

// faultFree zeroes every source of timing errors. The base rate alone is
// the rate at t_ref_c and zero utilisation: with either sensitivity left
// on, a warm, busy chip still injects errors.
func faultFree(cfg Config) Config {
	cfg.Fault.BaseErrorRate = 0
	cfg.Fault.TempSensitivity = 0
	cfg.Fault.UtilSensitivity = 0
	return cfg
}

func TestSchemeIdentitiesAtZeroFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a plan of eight arms")
	}
	pairs := [][2]Scheme{
		{CRC, core.StaticScheme(network.Mode0)},
		{ARQ, core.StaticScheme(network.Mode1)},
	}
	benchmarks := []string{"canneal", "dedup"}
	var arms []Arm
	for _, topo := range []string{"mesh", "torus"} {
		cfg := faultFree(fastConfig())
		cfg.Topology = topo
		for _, pair := range pairs {
			for _, scheme := range pair {
				arms = append(arms, Arm{Label: topo, Config: cfg, Scheme: scheme})
			}
		}
	}
	results, err := RunArms(arms, benchmarks, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(arms); i += 2 {
		a, b := arms[i], arms[i+1]
		for k, bench := range benchmarks {
			x, y := results[i][k], results[i+1][k]
			if x.Summary.ErrorsInjected != 0 || y.Summary.ErrorsInjected != 0 {
				t.Fatalf("%s/%s: %d and %d errors injected, want a fault-free run", a.Label, bench,
					x.Summary.ErrorsInjected, y.Summary.ErrorsInjected)
			}
			if x.ExecutionCycles != y.ExecutionCycles || x.MeanLatency != y.MeanLatency {
				t.Errorf("%s/%s: %s ran %d cycles at %.4f mean latency, %s %d at %.4f",
					a.Label, bench, a.Scheme, x.ExecutionCycles, x.MeanLatency, b.Scheme, y.ExecutionCycles, y.MeanLatency)
			}
		}
	}
}

// TestVCDepthLeavesTimingUnchanged: a VC holds one packet until its
// tail's credits return, so once a buffer fits a whole packet, deeper
// buffers change nothing a static arm does at zero faults. RL arms are
// left out: their buffer feature is occupancy ÷ depth, which moves with
// the depth even when the timing would not.
func TestVCDepthLeavesTimingUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sixteen loaded simulations")
	}
	schemes := []Scheme{CRC, ARQ, core.StaticScheme(network.Mode2), core.StaticScheme(network.Mode3)}
	maxLatency := 0.0
	for _, topo := range []string{"mesh", "torus"} {
		for _, scheme := range schemes {
			run := func(depth int) Result {
				cfg := faultFree(fastConfig())
				cfg.Topology = topo
				cfg.SourceWindow = 64
				cfg.VCDepth = depth
				// 0.05 packets/node/cycle loads the 4x4 fabric enough
				// that the relaxed-timing arms queue for VCs.
				events, err := SyntheticTrace(cfg, "uniform", 0.05, int64(cfg.MaxCycles), cfg.Seed+17)
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunTrace(cfg, scheme, events, "uniform")
				if err != nil {
					t.Fatal(err)
				}
				if res.Summary.ErrorsInjected != 0 {
					t.Fatalf("%s/%s depth %d: %d errors injected, want a fault-free run", topo, scheme, depth, res.Summary.ErrorsInjected)
				}
				return res
			}
			a, b := run(4), run(16)
			if a.ExecutionCycles != b.ExecutionCycles || a.MeanLatency != b.MeanLatency {
				t.Errorf("%s/%s: depth 4 ran %d cycles at %.4f mean latency, depth 16 %d at %.4f",
					topo, scheme, a.ExecutionCycles, a.MeanLatency, b.ExecutionCycles, b.MeanLatency)
			}
			maxLatency = max(maxLatency, a.MeanLatency)
			t.Logf("%s/%s: %d cycles, %.1f mean latency", topo, scheme, a.ExecutionCycles, a.MeanLatency)
		}
	}
	// An unloaded fabric would pass trivially: the buffers must fill.
	if maxLatency < 200 {
		t.Errorf("highest mean latency %.1f cycles: the trace does not load the VCs", maxLatency)
	}
}
