package thermal

import (
	"math"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/topology"
)

func newGrid(t *testing.T, w, h int) *Grid {
	t.Helper()
	mesh, err := topology.NewMesh(w, h)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrid(mesh, config.Default().Thermal)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestInitialTemperature(t *testing.T) {
	g := newGrid(t, 4, 4)
	want := InitialC
	for i := 0; i < 16; i++ {
		if g.Temperature(i) != want {
			t.Fatalf("tile %d starts at %g, want %g", i, g.Temperature(i), want)
		}
	}
}

func TestNilMeshRejected(t *testing.T) {
	if _, err := NewGrid(nil, config.Default().Thermal); err == nil {
		t.Fatal("NewGrid(nil) succeeded")
	}
}

func TestZeroPowerCoolsToAmbient(t *testing.T) {
	g := newGrid(t, 2, 2)
	power := make([]float64, 4)
	// Step long past the thermal time constant.
	for i := 0; i < 200; i++ {
		if err := g.Step(power, 10e-6); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if math.Abs(g.Temperature(i)-ambientC) > 0.1 {
			t.Fatalf("tile %d = %gC, want ambient %gC", i, g.Temperature(i), ambientC)
		}
	}
}

func TestUniformPowerSteadyState(t *testing.T) {
	// With uniform power no lateral flow occurs; every tile settles at
	// ambient + P * RthetaJA.
	g := newGrid(t, 3, 3)
	power := make([]float64, 9)
	for i := range power {
		power[i] = 1.0
	}
	ss, err := g.SteadyState(power)
	if err != nil {
		t.Fatal(err)
	}
	want := ambientC + 1.0*rThetaJA
	for i, temp := range ss {
		if math.Abs(temp-want) > 0.01 {
			t.Fatalf("steady tile %d = %g, want %g", i, temp, want)
		}
	}
}

func TestStepConvergesToSteadyState(t *testing.T) {
	g := newGrid(t, 3, 3)
	power := make([]float64, 9)
	power[4] = 2.0 // hotspot in the center
	ss, err := g.SteadyState(power)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := g.Step(power, 5e-6); err != nil {
			t.Fatal(err)
		}
	}
	for i := range ss {
		if math.Abs(g.Temperature(i)-ss[i]) > 0.5 {
			t.Fatalf("tile %d: transient %g vs steady %g", i, g.Temperature(i), ss[i])
		}
	}
}

func TestHotspotSpreadsLaterally(t *testing.T) {
	g := newGrid(t, 3, 3)
	power := make([]float64, 9)
	power[4] = 2.0
	ss, err := g.SteadyState(power)
	if err != nil {
		t.Fatal(err)
	}
	// Center hottest, edge-adjacent warmer than ambient, corners coolest.
	if !(ss[4] > ss[1] && ss[1] > ss[0] && ss[0] > ambientC) {
		t.Fatalf("no lateral gradient: center=%g edge=%g corner=%g ambient=%g", ss[4], ss[1], ss[0], ambientC)
	}
}

func TestMorePowerIsHotter(t *testing.T) {
	g := newGrid(t, 2, 2)
	low := []float64{0.5, 0.5, 0.5, 0.5}
	high := []float64{1.5, 1.5, 1.5, 1.5}
	ssLow, _ := g.SteadyState(low)
	ssHigh, _ := g.SteadyState(high)
	for i := range ssLow {
		if ssHigh[i] <= ssLow[i] {
			t.Fatalf("tile %d: high power %g not hotter than low %g", i, ssHigh[i], ssLow[i])
		}
	}
}

func TestStepValidatesInput(t *testing.T) {
	g := newGrid(t, 2, 2)
	if err := g.Step([]float64{1}, 1e-6); err == nil {
		t.Error("Step accepted wrong-length power vector")
	}
	if err := g.Step(make([]float64, 4), 0); err == nil {
		t.Error("Step accepted zero dt")
	}
	if err := g.Step(make([]float64, 4), -1); err == nil {
		t.Error("Step accepted negative dt")
	}
	if _, err := g.SteadyState([]float64{1}); err == nil {
		t.Error("SteadyState accepted wrong-length power vector")
	}
}

func TestStabilityUnderLargeTimestep(t *testing.T) {
	// A single huge Step must internally sub-step and stay finite.
	g := newGrid(t, 4, 4)
	power := make([]float64, 16)
	for i := range power {
		power[i] = 2.0
	}
	if err := g.Step(power, 1.0); err != nil { // 1 full second
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		temp := g.Temperature(i)
		if math.IsNaN(temp) || math.IsInf(temp, 0) || temp > 500 {
			t.Fatalf("tile %d diverged to %g", i, temp)
		}
	}
}

func TestAggregates(t *testing.T) {
	g := newGrid(t, 2, 2)
	g.temp = []float64{50, 60, 70, 80}
	if got := g.MaxTemperature(); got != 80 {
		t.Errorf("MaxTemperature = %g", got)
	}
	if got := g.MeanTemperature(); got != 65 {
		t.Errorf("MeanTemperature = %g", got)
	}
	if len(g.Temperatures()) != 4 {
		t.Error("Temperatures length wrong")
	}
}

func TestOperatingRangeMatchesPaper(t *testing.T) {
	// The paper observes tile temperatures in [50, 100]C while running
	// benchmarks. With per-tile power between idle (~0.4W) and loaded
	// (~2.2W), the default thermal constants must land in that band.
	g := newGrid(t, 8, 8)
	idle := make([]float64, 64)
	loaded := make([]float64, 64)
	for i := range idle {
		idle[i] = 0.4
		loaded[i] = 2.2
	}
	ssIdle, _ := g.SteadyState(idle)
	ssLoaded, _ := g.SteadyState(loaded)
	if ssIdle[27] < 50 || ssIdle[27] > 70 {
		t.Errorf("idle center tile = %gC, want within [50,70]", ssIdle[27])
	}
	if ssLoaded[27] < 85 || ssLoaded[27] > 115 {
		t.Errorf("loaded center tile = %gC, want within [85,115]", ssLoaded[27])
	}
	if ssLoaded[27] <= ssIdle[27] {
		t.Error("loaded not hotter than idle")
	}
}
