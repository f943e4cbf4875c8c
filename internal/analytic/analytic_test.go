package analytic

import (
	"math"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/network"
	"rlnoc/internal/power"
)

// measure runs a single packet through the real simulator on an idle,
// error-free 8x8 mesh.
func measure(t *testing.T, mode int, hops, flits int) int64 {
	t.Helper()
	cfg := config.Small()
	cfg.Width, cfg.Height = 8, 8
	cfg.Fault.BaseErrorRate = 0
	n, err := network.New(cfg, network.StaticController{Fixed: network.Mode(mode)},
		network.ControllerNone, mode != 0)
	if err != nil {
		t.Fatal(err)
	}
	n.Stats().SetMeasuring(true)
	if _, err := n.NewDataPacket(0, hops, flits, 0); err != nil { // east along row 0
		t.Fatal(err)
	}
	for !n.Drained() && n.Cycle() < 5000 {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !n.Drained() {
		t.Fatal("undelivered")
	}
	return int64(n.Stats().MeanLatency())
}

// TestZeroLoadFormulaMatchesSimulatorExactly is the package's anchor: the
// closed form must agree with the cycle-accurate simulator cycle-for-cycle
// across modes, distances and packet sizes.
func TestZeroLoadFormulaMatchesSimulatorExactly(t *testing.T) {
	// Exact while flits <= VCDepth (4); beyond that the credit return
	// loop throttles serialization and the simulator exceeds the formula.
	for mode := 0; mode < 4; mode++ {
		for _, hops := range []int{1, 3, 7} {
			for _, flits := range []int{1, 2, 4} {
				want := ZeroLoadLatency(hops, flits, ModeLink(mode))
				got := measure(t, mode, hops, flits)
				if got != want {
					t.Errorf("mode%d hops=%d flits=%d: simulator %d, formula %d",
						mode, hops, flits, got, want)
				}
			}
		}
	}
}

func TestZeroLoadFormulaIsLowerBoundBeyondVCDepth(t *testing.T) {
	// Packets longer than the VC buffer hit the credit-loop limit: the
	// simulator may exceed the closed form, never undercut it.
	for mode := 0; mode < 4; mode++ {
		want := ZeroLoadLatency(3, 8, ModeLink(mode))
		got := measure(t, mode, 3, 8)
		if got < want {
			t.Errorf("mode%d: simulator %d beat the formula %d", mode, got, want)
		}
		if got > want+8 {
			t.Errorf("mode%d: credit-loop penalty implausibly large: %d vs %d", mode, got, want)
		}
	}
}

func TestZeroLoadDegenerate(t *testing.T) {
	if ZeroLoadLatency(0, 4, ModeLink(0)) != 0 || ZeroLoadLatency(3, 0, ModeLink(0)) != 0 {
		t.Error("degenerate inputs should yield 0")
	}
}

func TestModeCostOrderingAcrossErrorRates(t *testing.T) {
	pr := power.DefaultParams()
	// Clean link: the bypass mode must win (no ECC latency/energy).
	if m := BestMode(1e-6, 4, 6, pr); m != 0 {
		t.Errorf("best mode at p=1e-6 is %d, want 0", m)
	}
	// Heavy errors: relaxation must win (everything else melts down).
	if m := BestMode(0.5, 4, 6, pr); m != 3 {
		t.Errorf("best mode at p=0.5 is %d, want 3", m)
	}
	// The protected modes must beat bypass well before p=5%.
	if m := BestMode(0.05, 4, 6, pr); m == 0 {
		t.Error("bypass still best at p=5%")
	}
}

func TestCrossoverThresholdsSane(t *testing.T) {
	pr := power.DefaultParams()
	th := CrossoverThresholds(4, 6, pr)
	if len(th) == 0 {
		t.Fatal("no crossovers found — the modes never trade places")
	}
	// Monotone increasing.
	for i := 1; i < len(th); i++ {
		if th[i] <= th[i-1] {
			t.Fatalf("thresholds not increasing: %v", th)
		}
	}
	// The first crossover (bypass -> protected) sits in the regime the
	// DT thresholds encode (around 1e-4..1e-2).
	if th[0] < 1e-5 || th[0] > 0.05 {
		t.Errorf("first crossover %g outside plausible band", th[0])
	}
}

func TestEvaluateModeComponents(t *testing.T) {
	pr := power.DefaultParams()
	c0 := EvaluateMode(0, 0, 4, 6, pr)
	c1 := EvaluateMode(1, 0, 4, 6, pr)
	c2 := EvaluateMode(2, 0, 4, 6, pr)
	c3 := EvaluateMode(3, 0, 4, 6, pr)
	// At p=0: latency ordering 0 < 1 < 2 < 3 (pipeline + occupancy), and
	// energy ordering 0 < 1 < 2 (codecs, duplicate), with 3 == 1.
	if !(c0.LatencyCycles < c1.LatencyCycles && c1.LatencyCycles < c2.LatencyCycles && c2.LatencyCycles < c3.LatencyCycles) {
		t.Errorf("latency ordering wrong: %v %v %v %v", c0.LatencyCycles, c1.LatencyCycles, c2.LatencyCycles, c3.LatencyCycles)
	}
	if !(c0.EnergyPJ < c1.EnergyPJ && c1.EnergyPJ < c2.EnergyPJ) {
		t.Errorf("energy ordering wrong: %v %v %v", c0.EnergyPJ, c1.EnergyPJ, c2.EnergyPJ)
	}
	if math.Abs(c3.EnergyPJ-c1.EnergyPJ) > 1e-9 {
		t.Errorf("mode3 energy %v != mode1 energy %v at p=0", c3.EnergyPJ, c1.EnergyPJ)
	}
	// Rising p must raise mode 0's cost fastest.
	d0 := EvaluateMode(0, 0.05, 4, 6, pr).Score() - c0.Score()
	d1 := EvaluateMode(1, 0.05, 4, 6, pr).Score() - c1.Score()
	if d0 <= d1 {
		t.Errorf("mode0 cost did not rise fastest with p: %g vs %g", d0, d1)
	}
}
