// Package thermal implements a HotSpot-like compact thermal model: each
// router tile is an RC node with a vertical thermal resistance to ambient
// (package/heat-sink path) and lateral resistances to the four adjacent
// tiles (silicon spreading). Tile power — processing core plus router —
// drives temperature, which in turn drives the timing-error model,
// closing the power→heat→error feedback loop of the paper.
//
// The thermal capacitance is deliberately accelerated (time constant of
// tens of microseconds instead of milliseconds) so the feedback loop is
// exercised within simulation windows of a few hundred thousand cycles;
// DESIGN.md documents this substitution.
package thermal

import (
	"fmt"
	"math"

	"rlnoc/internal/config"
	"rlnoc/internal/topology"
)

// The RC grid's calibration, typed so that constant arithmetic over them
// (Step's stability bound) rounds as run-time arithmetic does.
const (
	ambientC      float64 = 45.0   // ambient temperature (C)
	rThetaJA      float64 = 25.0   // vertical thermal resistance to ambient (K/W)
	rThetaLateral float64 = 60.0   // lateral resistance between adjacent tiles (K/W)
	cThermal      float64 = 1.0e-6 // tile thermal capacitance (J/K)
	InitialC      float64 = 55.0   // every tile's temperature before the first solve (C)
)

// Grid is the tile thermal model. It is not safe for concurrent use.
type Grid struct {
	temp []float64
	// nbr holds each tile's physical lateral neighbors in fixed
	// North, South, East, West order (-1 where the die edge is). Heat
	// spreads through the silicon die, whose tiles form a plain 2D grid
	// under every fabric — torus wraparound links are long wires, not
	// physical adjacency — so adjacency comes from the topology's tile
	// coordinates (Dims/Coord), never from its link structure. The fixed
	// direction order keeps the per-tile float accumulation order, and so
	// every temperature bit, identical to the historical mesh iteration.
	nbr [][4]int
	// scratch holds per-step temperature deltas.
	scratch []float64
}

// NewGrid builds a thermal grid over the fabric's physical tile layout
// with every tile at InitialC. The ThermalConfig parameter is unread.
func NewGrid(topo topology.Topology, _ config.ThermalConfig) (*Grid, error) {
	if topo == nil {
		return nil, fmt.Errorf("thermal: nil topology")
	}
	n := topo.Nodes()
	g := &Grid{
		temp:    make([]float64, n),
		nbr:     make([][4]int, n),
		scratch: make([]float64, n),
	}
	w, h := topo.Dims()
	for i := range g.nbr {
		c := topo.Coord(i)
		g.nbr[i] = [4]int{-1, -1, -1, -1}
		if c.Y+1 < h { // North
			g.nbr[i][0] = topo.ID(topology.Coord{X: c.X, Y: c.Y + 1})
		}
		if c.Y-1 >= 0 { // South
			g.nbr[i][1] = topo.ID(topology.Coord{X: c.X, Y: c.Y - 1})
		}
		if c.X+1 < w { // East
			g.nbr[i][2] = topo.ID(topology.Coord{X: c.X + 1, Y: c.Y})
		}
		if c.X-1 >= 0 { // West
			g.nbr[i][3] = topo.ID(topology.Coord{X: c.X - 1, Y: c.Y})
		}
	}
	for i := range g.temp {
		g.temp[i] = InitialC
	}
	return g, nil
}

// Temperature returns tile i's temperature in Celsius.
func (g *Grid) Temperature(i int) float64 { return g.temp[i] }

// Temperatures returns the live temperature slice (read-only by convention).
func (g *Grid) Temperatures() []float64 { return g.temp }

// MaxTemperature returns the hottest tile's temperature.
func (g *Grid) MaxTemperature() float64 {
	max := math.Inf(-1)
	for _, t := range g.temp {
		if t > max {
			max = t
		}
	}
	return max
}

// MeanTemperature returns the average tile temperature.
func (g *Grid) MeanTemperature() float64 {
	var sum float64
	for _, t := range g.temp {
		sum += t
	}
	return sum / float64(len(g.temp))
}

// Step advances the grid by dtSeconds with the given per-tile power draw
// in watts. Forward Euler with automatic sub-stepping for stability.
func (g *Grid) Step(powerW []float64, dtSeconds float64) error {
	if len(powerW) != len(g.temp) {
		return fmt.Errorf("thermal: power vector length %d, want %d", len(powerW), len(g.temp))
	}
	if dtSeconds <= 0 {
		return fmt.Errorf("thermal: non-positive dt %g", dtSeconds)
	}
	// Stability: forward Euler needs dt < C / Gmax where Gmax is the
	// largest total conductance at a node (vertical + 4 lateral).
	const gMax = 1/rThetaJA + 4/rThetaLateral
	const dtStable = 0.25 * cThermal / gMax
	steps := int(math.Ceil(dtSeconds / dtStable))
	if steps < 1 {
		steps = 1
	}
	h := dtSeconds / float64(steps)
	for s := 0; s < steps; s++ {
		g.substep(powerW, h)
	}
	return nil
}

func (g *Grid) substep(powerW []float64, h float64) {
	for i := range g.temp {
		flow := powerW[i] - (g.temp[i]-ambientC)/rThetaJA
		for _, j := range g.nbr[i] {
			if j >= 0 {
				flow -= (g.temp[i] - g.temp[j]) / rThetaLateral
			}
		}
		g.scratch[i] = h * flow / cThermal
	}
	for i := range g.temp {
		g.temp[i] += g.scratch[i]
	}
}

// SteadyState returns the equilibrium temperatures for a constant power
// vector, solved iteratively (Gauss-Seidel). Useful for calibration and
// tests; the simulator itself uses Step.
func (g *Grid) SteadyState(powerW []float64) ([]float64, error) {
	if len(powerW) != len(g.temp) {
		return nil, fmt.Errorf("thermal: power vector length %d, want %d", len(powerW), len(g.temp))
	}
	t := make([]float64, len(g.temp))
	for i := range t {
		t[i] = ambientC
	}
	const gv = 1 / rThetaJA
	const gl = 1 / rThetaLateral
	for iter := 0; iter < 10000; iter++ {
		var maxDelta float64
		for i := range t {
			num := powerW[i] + gv*ambientC
			den := gv
			for _, j := range g.nbr[i] {
				if j >= 0 {
					num += gl * t[j]
					den += gl
				}
			}
			next := num / den
			if d := math.Abs(next - t[i]); d > maxDelta {
				maxDelta = d
			}
			t[i] = next
		}
		if maxDelta < 1e-9 {
			return t, nil
		}
	}
	return t, nil
}
