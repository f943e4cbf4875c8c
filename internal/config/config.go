// Package config defines the simulation parameters for the RL-driven
// fault-tolerant NoC simulator and their defaults, mirroring Table II of
// the paper (8x8 2D mesh, X-Y routing, 4-stage routers, 4 VCs per port,
// 128-bit flits, 4 flits per packet, 32 nm, 1.0 V, 2.0 GHz).
package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"rlnoc/internal/invariant"
)

// Supported fabric topologies (see internal/topology).
const (
	TopologyMesh  = "mesh"  // 2D mesh, the paper's fabric
	TopologyTorus = "torus" // 2D torus: mesh with wraparound links
)

// Config collects every tunable of a simulation run. The zero value is not
// usable; start from Default and override.
type Config struct {
	// Topology.
	Width  int `json:"width"`  // fabric columns
	Height int `json:"height"` // fabric rows
	// Topology selects the fabric shape: "mesh" (default; empty means
	// mesh) or "torus".
	Topology string `json:"topology"`

	// Router microarchitecture. The pipeline depth is the network's
	// modelled four stages, not a knob (network.PipelineStages), and the
	// go-back-N retransmission buffer is unbounded.
	VCsPerPort int `json:"vcs_per_port"` // virtual channels per input port
	VCDepth    int `json:"vc_depth"`     // flit slots per VC buffer

	// Packet format.
	FlitBits       int `json:"flit_bits"`        // payload bits per flit: 128, the flit model's two 64-bit words
	FlitsPerPacket int `json:"flits_per_packet"` // flits per data packet

	// Supply voltage; the clock is ClockGHz.
	VoltageV float64 `json:"voltage_v"`

	// Fault model.
	Fault FaultConfig `json:"fault"`

	// Thermal model.
	Thermal ThermalConfig `json:"thermal"`

	// RL controller.
	RL RLConfig `json:"rl"`

	// QRoute switches the Q-routing scheme's learned next-hop selection
	// on. It is not part of the JSON: the scheme sets it
	// (core.SchemeConfig), on every build and every restore.
	QRoute QRouteConfig `json:"-"`

	// Simulation phases, in cycles.
	PretrainCycles int `json:"pretrain_cycles"` // RL/DT pre-training on synthetic traffic
	WarmupCycles   int `json:"warmup_cycles"`   // stats ignored
	MaxCycles      int `json:"max_cycles"`      // hard cap on measured phase
	DrainCycles    int `json:"drain_cycles"`    // cap on post-trace drain

	// SuiteWorkers caps the experiment suite's parallel worker pool
	// (scheme x benchmark jobs). 0 sizes the pool from
	// runtime.GOMAXPROCS(0). Results are deterministic regardless of the
	// pool size; this only trades memory for wall-clock time.
	SuiteWorkers int `json:"suite_workers"`

	// StepWorkers is ignored: Step is sequential (DESIGN.md §11). The
	// field stays because the frozen benchmark module sets it
	// (benchmark/replica.go:233), and its JSON key stays because config
	// JSON is embedded in every snapshot, so dropping the key would move
	// every checkpoint's bytes and content ID.
	StepWorkers int `json:"step_workers"`

	// SourceWindow caps outstanding (undelivered) packets per source
	// node; injection stalls at the cap, modeling cores blocking on
	// outstanding transactions. This is what lets a slow network stretch
	// application execution time (Fig. 7). 0 disables the window
	// (pure open-loop replay).
	SourceWindow int `json:"source_window"`

	// HardFaults is a deterministic hard-fault schedule: a comma-separated
	// list of kill events, each "CYCLE:rID" (router ID dies at CYCLE) or
	// "CYCLE:lID.DIR" (the link leaving router ID toward DIR — north,
	// south, east or west — dies, both directions). Example:
	// "5000:l12.east,8000:r3". Empty means no hard faults. Parsed and
	// validated by internal/fault.
	HardFaults string `json:"hard_faults,omitempty"`

	// Checks arms the runtime invariant layer (internal/invariant): ""
	// or "off" disables it (zero overhead, bit-identical runs), "all"
	// runs every check. The RLNOC_CHECKS environment variable supplies a
	// default when the field is empty.
	Checks string `json:"checks,omitempty"`

	// Random seed for every stochastic component (fault injection,
	// exploration, traffic synthesis). Runs are deterministic per seed.
	Seed int64 `json:"seed"`
}

// FaultConfig parameterizes the VARIUS-like timing-error model
// (Gaussian critical-path slack; see internal/fault).
type FaultConfig struct {
	// BaseErrorRate is the per-flit per-hop timing-error probability at
	// the calibration point (reference temperature, configured voltage,
	// zero utilization); the model's path-delay sigma is solved from it.
	BaseErrorRate float64 `json:"base_error_rate"`
	// TempSensitivity is the fractional critical-path delay increase per
	// degree Celsius above the reference temperature (VARIUS models delay
	// growing with it; the error probability follows the Gaussian tail).
	TempSensitivity float64 `json:"temp_sensitivity"`
	// UtilSensitivity is the fractional delay increase at full link
	// utilization (supply noise / IR-drop proxy).
	UtilSensitivity float64 `json:"util_sensitivity"`
	// ProcessSigma is the standard deviation of the per-link fractional
	// delay variation (within-die process variation).
	ProcessSigma float64 `json:"process_sigma"`
}

// ThermalConfig parameterizes the HotSpot-like RC thermal grid.
type ThermalConfig struct {
	UpdatePeriod int `json:"update_period"` // cycles between thermal solves
}

// RLConfig parameterizes the tabular Q-learning controller. The learning
// rate is not a setting: each (state, action) cell's decays with its
// visit count (rl's learningRate).
type RLConfig struct {
	Gamma      float64 `json:"gamma"`       // discount rate
	Epsilon    float64 `json:"epsilon"`     // exploration probability
	StepCycles int     `json:"step_cycles"` // cycles per RL time step
	// SharedTable makes all per-router agents learn into one shared
	// Q-table (n-times the sample rate; see DESIGN.md). The paper's
	// strictly per-router tables are the ablation variant.
	SharedTable bool `json:"shared_table"`
	// TestEpsilon is the exploration rate used during the measured
	// testing phase (annealed from the pre-training Epsilon; standard
	// practice, and every random mode costs real latency). Setting it to
	// Epsilon keeps one rate throughout, as a literal reading of the
	// paper would.
	TestEpsilon float64 `json:"test_epsilon"`
	// ModeMask restricts the RL controllers to the modes whose bits are set
	// (bit m allows Mode m); a masked-out choice steps down to the next
	// cheaper allowed mode. Zero allows all four.
	ModeMask uint8 `json:"mode_mask,omitempty"`
}

// QRouteConfig switches per-router Q-routing (the qroute scheme): each
// router learns a cost table Q[dst][port] from per-hop delivery feedback
// and routes data packets along the learned argmin, restricted to minimal
// productive ports, with the table-routed escape VC class guaranteeing
// deadlock freedom (DESIGN.md §13). Its step size, exploration rate,
// congestion weight and escape timeout are constants of internal/rl and
// internal/network.
type QRouteConfig struct {
	// Enabled turns learned routing on. Set by the scheme wiring, not by
	// hand: core.SchemeConfig enables it for SchemeQRoute.
	Enabled bool
}

// Default returns the paper's Table II configuration with fault, thermal
// and RL parameters chosen to land operating temperatures in the paper's
// observed [50,100] C range and link utilizations below 0.3 flits/cycle.
func Default() Config {
	return Config{
		Width:          8,
		Height:         8,
		Topology:       TopologyMesh,
		VCsPerPort:     4,
		VCDepth:        4,
		FlitBits:       128,
		FlitsPerPacket: 4,
		VoltageV:       1.0,
		Fault: FaultConfig{
			BaseErrorRate:   0.00002,
			TempSensitivity: 0.0012,
			UtilSensitivity: 0.005,
			ProcessSigma:    0.01,
		},
		Thermal: ThermalConfig{
			// Divides the RL step (1000 cycles) exactly so per-epoch
			// leakage accrual is uniform; a non-divisor alternates 3 vs 4
			// accruals per epoch and injects artificial power noise into
			// the RL reward.
			UpdatePeriod: 250,
		},
		RL: RLConfig{
			Gamma: 0.5,
			// The paper quotes epsilon = 0.1 without distinguishing
			// phases; we explore harder during pre-training and anneal
			// for the measured phase (TestEpsilon).
			Epsilon:     0.2,
			StepCycles:  1000,
			SharedTable: true,
			TestEpsilon: 0.02,
		},
		PretrainCycles: 600_000,
		WarmupCycles:   50_000,
		MaxCycles:      200_000,
		DrainCycles:    50_000,
		SourceWindow:   4,
		Seed:           1,
	}
}

// Small returns a scaled-down configuration (4x4 mesh, short phases)
// suitable for unit tests and quick examples.
func Small() Config {
	c := Default()
	c.Width, c.Height = 4, 4
	c.PretrainCycles = 8_000
	c.WarmupCycles = 2_000
	c.MaxCycles = 20_000
	c.DrainCycles = 10_000
	return c
}

// Validate reports the first invalid parameter, or nil.
func (c *Config) Validate() error {
	switch {
	case c.Width < 2 || c.Height < 2:
		return fmt.Errorf("config: fabric must be at least 2x2, got %dx%d", c.Width, c.Height)
	case c.Width > 64 || c.Height > 64:
		return fmt.Errorf("config: fabric dimension above 64 unsupported, got %dx%d", c.Width, c.Height)
	case c.TopologyKind() != TopologyMesh && c.TopologyKind() != TopologyTorus:
		return fmt.Errorf("config: unknown topology %q (want mesh|torus)", c.Topology)
	case c.TopologyKind() == TopologyTorus && c.VCsPerPort < 4:
		// The torus dateline rule halves each VC class (data, control)
		// into wrap classes 0 and 1, so both halves need a VC.
		return fmt.Errorf("config: torus needs at least 4 VCs per port for dateline classes, got %d", c.VCsPerPort)
	case c.VCsPerPort < 2:
		return fmt.Errorf("config: need at least 2 VCs per port (data + control), got %d", c.VCsPerPort)
	case c.VCsPerPort > 12:
		// The routers track buffer occupancy in a single 64-bit mask of
		// ports x VCs slots (5 ports x 12 VCs = 60 bits), and an output
		// port keeps 12 downstream VCs' credits and flags inline.
		return fmt.Errorf("config: at most 12 VCs per port supported, got %d", c.VCsPerPort)
	case c.VCDepth < 1:
		return fmt.Errorf("config: VC depth must be positive, got %d", c.VCDepth)
	case c.VCDepth > 64:
		// The fabric allocates routers x 5 ports x VCs x depth flit slots up
		// front: at the 64x64, 12-VC ceiling a depth of 64 is 15.7M slots
		// (126 MB), and a credit count fits a byte.
		return fmt.Errorf("config: VC depth above 64 unsupported, got %d", c.VCDepth)
	case c.FlitBits != 128:
		return fmt.Errorf("config: flit bits must be 128 (two 64-bit words, the only width the flit model has), got %d", c.FlitBits)
	case c.FlitsPerPacket < 1:
		return fmt.Errorf("config: flits per packet must be positive, got %d", c.FlitsPerPacket)
	case c.VoltageV <= 0:
		return fmt.Errorf("config: voltage must be positive, got %g", c.VoltageV)
	case c.MaxCycles < 1:
		return fmt.Errorf("config: max cycles must be positive, got %d", c.MaxCycles)
	case c.PretrainCycles < 0 || c.WarmupCycles < 0 || c.DrainCycles < 0:
		return fmt.Errorf("config: phase lengths must be non-negative")
	case c.SourceWindow < 0:
		return fmt.Errorf("config: source window must be non-negative, got %d", c.SourceWindow)
	case c.SuiteWorkers < 0:
		return fmt.Errorf("config: suite workers must be non-negative, got %d", c.SuiteWorkers)
	}
	if _, err := invariant.Parse(c.Checks); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if err := c.Fault.validate(); err != nil {
		return err
	}
	if _, _, err := c.Fault.operatingPoint(c.VoltageV); err != nil {
		return err
	}
	if err := c.Thermal.validate(); err != nil {
		return err
	}
	if err := c.RL.validate(); err != nil {
		return err
	}
	return c.validateQRoute()
}

// validateQRoute checks that the fabric can host Q-routing. The VC floor
// doubles on the torus: qroute splits the data VCs into escape and
// adaptive sub-ranges, and the torus dateline rule halves each sub-range
// again.
func (c *Config) validateQRoute() error {
	if !c.QRoute.Enabled {
		return nil
	}
	switch {
	case c.TopologyKind() == TopologyTorus && c.VCsPerPort < 8:
		return fmt.Errorf("config: qroute on a torus needs at least 8 VCs per port (escape/adaptive x dateline classes), got %d", c.VCsPerPort)
	case c.VCsPerPort < 4:
		return fmt.Errorf("config: qroute needs at least 4 VCs per port (escape + adaptive data classes), got %d", c.VCsPerPort)
	case c.Routers() > 1024:
		return fmt.Errorf("config: qroute tables scale with routers^2; at most 1024 routers supported, got %d", c.Routers())
	}
	return nil
}

func (f *FaultConfig) validate() error {
	switch {
	case f.BaseErrorRate < 0 || f.BaseErrorRate > 1:
		return fmt.Errorf("config: base error rate must be in [0,1], got %g", f.BaseErrorRate)
	case f.TempSensitivity < 0:
		return fmt.Errorf("config: temperature sensitivity must be non-negative, got %g", f.TempSensitivity)
	case f.UtilSensitivity < 0:
		return fmt.Errorf("config: utilization sensitivity must be non-negative, got %g", f.UtilSensitivity)
	case f.ProcessSigma < 0:
		return fmt.Errorf("config: process sigma must be non-negative, got %g", f.ProcessSigma)
	}
	return nil
}

// ClockGHz is the router clock, Table II's 2.0 GHz.
const ClockGHz float64 = 2.0

// The timing-error model's calibration, typed so that a constant
// expression over them rounds after every operation, as run-time
// arithmetic does.
const (
	vNominal        float64 = 1.0  // supply voltage at which the model's delay is centered
	voltageExponent float64 = 1.3  // alpha-power-law delay scaling: delay ~ (vNominal/V)^voltageExponent
	nominalSlack    float64 = 0.08 // clock-period fraction left as slack at calibration
	CriticalPaths   float64 = 16   // independent critical paths per link stage
)

// FaultCalibration is the timing-error model's operating point at the
// calibration reference (the model's reference temperature, zero
// utilization), which internal/fault builds its Model from.
type FaultCalibration struct {
	// Mu0 is the critical-path mean delay, in clock periods.
	Mu0 float64
	// Z0 is the slack 1-Mu0 in path-delay standard deviations: the
	// standard-normal quantile at which one path of CriticalPaths fails
	// often enough for a link to see BaseErrorRate.
	Z0 float64
}

// Calibrate solves the error model at supply voltage voltageV. It fails
// when the critical path has no slack at that voltage, or when the base
// error rate is too large for any slack to produce it; Validate refuses
// both (operatingPoint), so every validated config builds its fault
// model. f must already have passed its own range checks.
func (f *FaultConfig) Calibrate(voltageV float64) (FaultCalibration, error) {
	mu0, q, err := f.operatingPoint(voltageV)
	if err != nil {
		return FaultCalibration{}, err
	}
	return FaultCalibration{Mu0: mu0, Z0: normalQuantile(q)}, nil
}

// operatingPoint returns the critical-path mean delay and the
// standard-normal level q whose quantile is Z0, or the reason the model
// cannot be solved. It is all Validate runs, so it skips the bisection:
// that search first compares q with the CDF at 0, exactly 0.5, and keeps
// its answer on that side of 0, so Z0 > 0 exactly when q > 0.5.
func (f *FaultConfig) operatingPoint(voltageV float64) (mu0, q float64, err error) {
	vScale := math.Pow(vNominal/voltageV, voltageExponent)
	mu0 = (1 - nominalSlack) * vScale
	if mu0 >= 1 {
		return 0, 0, fmt.Errorf("config: no timing slack at V=%gV (mean path delay %.3f cycles)", voltageV, mu0)
	}
	// Solve for the link error probability at the reference point to equal
	// BaseErrorRate: with CriticalPaths independent paths,
	// pLink = 1-(1-pPath)^nCrit, and pPath = Q(slack/sigma).
	pLink := f.BaseErrorRate
	if pLink <= 0 {
		pLink = 1e-12 // keep the model well-defined; probabilities stay ~0
	}
	pPath := 1 - math.Pow(1-pLink, 1/CriticalPaths)
	if q = 1 - pPath; q <= 0.5 {
		return 0, 0, fmt.Errorf("config: base error rate %g too large to calibrate", f.BaseErrorRate)
	}
	return mu0, q, nil
}

// normalQuantile inverts the standard normal CDF by bisection; p must be
// in (0,1).
func normalQuantile(p float64) float64 {
	lo, hi := -12.0, 12.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if 0.5*(1+math.Erf(mid/math.Sqrt2)) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func (t *ThermalConfig) validate() error {
	if t.UpdatePeriod < 1 {
		return fmt.Errorf("config: thermal update period must be positive, got %d", t.UpdatePeriod)
	}
	return nil
}

func (r *RLConfig) validate() error {
	switch {
	case r.Gamma < 0 || r.Gamma >= 1:
		return fmt.Errorf("config: RL gamma must be in [0,1), got %g", r.Gamma)
	case r.Epsilon < 0 || r.Epsilon > 1:
		return fmt.Errorf("config: RL epsilon must be in [0,1], got %g", r.Epsilon)
	case r.TestEpsilon < 0 || r.TestEpsilon > 1:
		return fmt.Errorf("config: RL test epsilon must be in [0,1], got %g", r.TestEpsilon)
	case r.StepCycles < 1:
		return fmt.Errorf("config: RL step must be positive, got %d", r.StepCycles)
	case r.ModeMask > 0b1111: // bits above Mode 3 name no mode, and alone would spin the step-down
		return fmt.Errorf("config: RL mode mask %#b names modes beyond the four (bits 0-3)", r.ModeMask)
	}
	return nil
}

// SuiteWorkerCount resolves SuiteWorkers for the campaign engine that runs
// whole simulations side by side (the figure suite, the ablations and
// nocserve campaigns): the configured size, or GOMAXPROCS when 0. Jobs are
// independent simulations with their own seeded RNGs, so the size changes
// only memory use and wall-clock time, never results (pinned by
// TestDeterminismParallelSuite), and a campaign's job identity ignores it.
func (c *Config) SuiteWorkerCount() int {
	if c.SuiteWorkers > 0 {
		return c.SuiteWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// Routers returns the number of routers in the fabric.
func (c *Config) Routers() int { return c.Width * c.Height }

// TopologyKind returns the configured fabric kind, defaulting the empty
// string to "mesh" so hand-built Configs that predate the field keep
// working.
func (c *Config) TopologyKind() string {
	if c.Topology == "" {
		return TopologyMesh
	}
	return c.Topology
}

// CyclePeriodNS returns the clock period in nanoseconds.
func (c *Config) CyclePeriodNS() float64 { return 1.0 / ClockGHz }

// Load reads a JSON configuration file, filling unset fields from Default.
func Load(path string) (Config, error) { return Preset(false, path) }

// Preset is the configuration a command's flags choose: Small when small
// is set, else Default, with the JSON file at path, if any, overlaid on it.
// A key that names no field is an error, so a typo or a retired key cannot
// silently run the preset.
func Preset(small bool, path string) (Config, error) {
	c := Default()
	if small {
		c = Small()
	}
	if path == "" {
		return c, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return c, fmt.Errorf("config: %w", err)
	}
	if err := Decode(data, &c); err != nil {
		return c, fmt.Errorf("config: parsing %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// Decode fills c from exactly one JSON value, refusing unknown keys and
// anything after the value. Fields the value does not name keep what c
// held.
func Decode(data []byte, c *Config) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(c); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON object")
	}
	return nil
}
