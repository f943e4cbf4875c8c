package rlnoc

// Exact scheme identities at zero faults. With no error ever injected the
// reactive CRC baseline and the static bypass arm drive the same datapath
// (no ECC stage, end-to-end CRC only), and so do ARQ+ECC and the static
// ECC arm: their runs must agree to the cycle.

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
