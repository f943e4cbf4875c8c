package fault

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rlnoc/internal/config"
)

func defaultModel(t *testing.T) *Model {
	t.Helper()
	cfg := config.Default()
	m, err := New(cfg.Fault, cfg.VoltageV, 16, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestCalibrationMatchesBaseRate(t *testing.T) {
	cfg := config.Default()
	cfg.Fault.ProcessSigma = 0 // remove per-link noise for exact calibration
	m, err := New(cfg.Fault, cfg.VoltageV, 4, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got := m.ErrorProbability(0, tRefC, 0, false)
	want := cfg.Fault.BaseErrorRate
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("p(TRef) = %g, want %g (within 1%%)", got, want)
	}
}

func TestErrorProbabilityMonotoneInTemperature(t *testing.T) {
	m := defaultModel(t)
	prev := -1.0
	for temp := 40.0; temp <= 110.0; temp += 5 {
		p := m.ErrorProbability(0, temp, 0, false)
		if p < prev {
			t.Fatalf("p not monotone: p(%g)=%g < p(prev)=%g", temp, p, prev)
		}
		prev = p
	}
}

func TestErrorProbabilityMonotoneInUtilization(t *testing.T) {
	m := defaultModel(t)
	prev := -1.0
	for util := 0.0; util <= 1.0; util += 0.1 {
		p := m.ErrorProbability(0, 70, util, false)
		if p < prev {
			t.Fatalf("p not monotone in util at %g", util)
		}
		prev = p
	}
}

func TestErrorProbabilityDynamicRange(t *testing.T) {
	// The model must span the paper's regimes: near-harmless at 50C and
	// severe toward 90-100C, so that all four operation modes have a
	// sweet spot.
	m := defaultModel(t)
	low := m.ErrorProbability(0, 50, 0, false)
	high := m.ErrorProbability(0, 95, 0.3, false)
	if low > 0.01 {
		t.Errorf("p(50C) = %g, want <= 0.01", low)
	}
	if high < 0.05 {
		t.Errorf("p(95C, util 0.3) = %g, want >= 0.05", high)
	}
	if high <= low*5 {
		t.Errorf("dynamic range too small: low=%g high=%g", low, high)
	}
}

func TestRelaxedModeSuppressesErrors(t *testing.T) {
	m := defaultModel(t)
	normal := m.ErrorProbability(0, 90, 0.3, false)
	relaxed := m.ErrorProbability(0, 90, 0.3, true)
	if relaxed >= normal*0.01 {
		t.Fatalf("relaxed p=%g not << normal p=%g", relaxed, normal)
	}
}

func TestProbabilityBounds(t *testing.T) {
	m := defaultModel(t)
	prop := func(tempRaw, utilRaw uint16, link uint8, relaxed bool) bool {
		temp := float64(tempRaw%200) - 20 // [-20, 180)
		util := float64(utilRaw%1001) / 1000
		p := m.ErrorProbability(int(link)%20-2, temp, util, relaxed)
		return p >= 0 && p <= maxErrorProbability
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestProcessVariationIsDeterministicPerSeed(t *testing.T) {
	cfg := config.Default()
	a, err := New(cfg.Fault, cfg.VoltageV, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg.Fault, cfg.VoltageV, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg.Fault, cfg.VoltageV, 8, 43)
	if err != nil {
		t.Fatal(err)
	}
	same, diff := true, false
	for i := 0; i < 8; i++ {
		pa := a.ErrorProbability(i, 80, 0.2, false)
		pb := b.ErrorProbability(i, 80, 0.2, false)
		pc := c.ErrorProbability(i, 80, 0.2, false)
		if pa != pb {
			same = false
		}
		if pa != pc {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different link factors")
	}
	if !diff {
		t.Error("different seeds produced identical link factors")
	}
}

func TestLowVoltageRaisesErrors(t *testing.T) {
	cfg := config.Default()
	nominal, err := New(cfg.Fault, 1.0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	droopy, err := New(cfg.Fault, 0.95, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pN := nominal.ErrorProbability(0, 70, 0.1, false)
	pD := droopy.ErrorProbability(0, 70, 0.1, false)
	if pD <= pN {
		t.Fatalf("voltage droop did not raise error rate: %g vs %g", pD, pN)
	}
}

func TestNewRejectsNoSlack(t *testing.T) {
	cfg := config.Default()
	if _, err := New(cfg.Fault, 0.5, 1, 1); err == nil {
		t.Fatal("New accepted an operating point with no timing slack")
	}
}

func TestNewRejectsNegativeLinks(t *testing.T) {
	cfg := config.Default()
	if _, err := New(cfg.Fault, 1.0, -1, 1); err == nil {
		t.Fatal("New accepted negative link count")
	}
}

func TestZeroBaseRateIsSafe(t *testing.T) {
	cfg := config.Default()
	cfg.Fault.BaseErrorRate = 0
	m, err := New(cfg.Fault, 1.0, 1, 1)
	if err != nil {
		t.Fatalf("New with zero base rate: %v", err)
	}
	if p := m.ErrorProbability(0, 50, 0, false); p > 1e-9 {
		t.Fatalf("zero base rate gives p=%g at reference", p)
	}
}

func TestSampleErrorBitsDistribution(t *testing.T) {
	m := defaultModel(t)
	rng := rand.New(rand.NewSource(5))
	const trials = 400000
	p := 0.002 // mild regime: classic single/double mix
	counts := make(map[int]int)
	errs := 0
	for i := 0; i < trials; i++ {
		b := m.SampleErrorBits(rng, p)
		counts[b]++
		if b > 0 {
			errs++
		}
	}
	errFrac := float64(errs) / trials
	if math.Abs(errFrac-p) > 0.0005 {
		t.Errorf("error fraction %g, want ~%g", errFrac, p)
	}
	multiFrac := float64(errs-counts[1]) / float64(errs)
	want := doubleBitFraction + 1.5*p
	if math.Abs(multiFrac-want) > 0.05 {
		t.Errorf("multi-bit fraction %g, want ~%g", multiFrac, want)
	}
}

func TestSampleErrorBitsEscalatesWithSeverity(t *testing.T) {
	m := defaultModel(t)
	rng := rand.New(rand.NewSource(6))
	meanBits := func(p float64) float64 {
		var sum, n float64
		for i := 0; i < 100000; i++ {
			if b := m.SampleErrorBits(rng, p); b > 0 {
				sum += float64(b)
				n++
			}
		}
		return sum / n
	}
	mild := meanBits(0.002)
	severe := meanBits(0.4)
	if mild > 1.5 {
		t.Errorf("mild regime flips %.2f bits/event, want < 1.5", mild)
	}
	if severe < 2.0 {
		t.Errorf("severe regime flips %.2f bits/event, want >= 2 (SECDED-defeating)", severe)
	}
	// Cap respected.
	for i := 0; i < 100000; i++ {
		if b := m.SampleErrorBits(rng, 0.75); b > maxFlipBits {
			t.Fatalf("flip count %d exceeds cap", b)
		}
	}
}

func TestFlipBitsFlipsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 0; n <= 4; n++ {
		words := []uint64{0, 0}
		FlipBits(rng, words, n)
		got := popcount(words)
		if got != n {
			t.Errorf("FlipBits(n=%d) flipped %d bits", n, got)
		}
	}
}

func TestFlipBitsEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	FlipBits(rng, nil, 3) // must not panic
	words := []uint64{0}
	FlipBits(rng, words, 100) // clamped to word size
	if popcount(words) != 64 {
		t.Errorf("over-flip flipped %d bits, want 64", popcount(words))
	}
}

func popcount(words []uint64) int {
	n := 0
	for _, w := range words {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// TestNormalCDFQuantileInverse: the model's CDF undoes the quantile
// config.Calibrate solves for, so each of a link's critical paths at the
// reference point passes with exactly the level the base rate implies.
func TestNormalCDFQuantileInverse(t *testing.T) {
	cfg := config.Default().Fault
	for _, p := range []float64{0.6, 0.9, 0.999, 1 - 1e-9} {
		cfg.BaseErrorRate = 1 - math.Pow(p, config.CriticalPaths)
		cal, err := cfg.Calibrate(1.0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(normalCDF(cal.Z0)-p) > 1e-9 {
			t.Errorf("quantile(%g) -> cdf %g", p, normalCDF(cal.Z0))
		}
	}
	if math.Abs(normalCDF(0)-0.5) > 1e-12 {
		t.Error("normalCDF(0) != 0.5")
	}
}
