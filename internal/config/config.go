// Package config defines the simulation parameters for the RL-driven
// fault-tolerant NoC simulator and their defaults, mirroring Table II of
// the paper (8x8 2D mesh, X-Y routing, 4-stage routers, 4 VCs per port,
// 128-bit flits, 4 flits per packet, 32 nm, 1.0 V, 2.0 GHz).
package config

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"rlnoc/internal/invariant"
)

// Routing selects the routing algorithm used by the mesh.
type Routing string

// Supported routing algorithms.
const (
	RoutingXY Routing = "xy" // dimension-ordered, X first (deadlock-free)
	RoutingYX Routing = "yx" // dimension-ordered, Y first (deadlock-free)
	// RoutingWestFirst is partially adaptive (Glass & Ni turn model):
	// West hops first, then congestion-aware choice among the remaining
	// productive directions. Deadlock-free.
	RoutingWestFirst Routing = "westfirst"
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

	Routing Routing `json:"routing"`

	// Router microarchitecture. The pipeline depth is the network's
	// modelled four stages, not a knob (network.PipelineStages), and the
	// go-back-N retransmission buffer is unbounded; configs that still name
	// pipeline_depth or output_buffer load with those keys ignored.
	VCsPerPort int `json:"vcs_per_port"` // virtual channels per input port
	VCDepth    int `json:"vc_depth"`     // flit slots per VC buffer

	// Packet format.
	FlitBits       int `json:"flit_bits"`        // payload bits per flit: 128, the flit model's two 64-bit words
	FlitsPerPacket int `json:"flits_per_packet"` // flits per data packet

	// Electrical operating point.
	VoltageV     float64 `json:"voltage_v"`
	FrequencyGHz float64 `json:"frequency_ghz"`

	// Fault model.
	Fault FaultConfig `json:"fault"`

	// Thermal model.
	Thermal ThermalConfig `json:"thermal"`

	// RL controller.
	RL RLConfig `json:"rl"`

	// QRoute parameterizes the Q-routing scheme's learned next-hop
	// selection. Ignored (and must stay disabled) for every other scheme.
	QRoute QRouteConfig `json:"qroute"`

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

	// Checks enables the runtime invariant layer (internal/invariant):
	// "" or "off" disables it (zero overhead, bit-identical runs), "all"
	// enables every check, or a comma-separated subset of
	// "ledger,credits,watchdog". The RLNOC_CHECKS environment variable
	// supplies a default when the field is empty.
	Checks string `json:"checks,omitempty"`

	// Random seed for every stochastic component (fault injection,
	// exploration, traffic synthesis). Runs are deterministic per seed.
	Seed int64 `json:"seed"`
}

// FaultConfig parameterizes the VARIUS-like timing-error model
// (Gaussian critical-path slack; see internal/fault).
type FaultConfig struct {
	// BaseErrorRate is the per-flit per-hop timing-error probability at
	// the calibration point (T = TRefC, configured voltage and frequency,
	// zero utilization); the model's path-delay sigma is solved from it.
	BaseErrorRate float64 `json:"base_error_rate"`
	// TempSensitivity is the fractional critical-path delay increase per
	// degree Celsius above TRefC (VARIUS models delay growing with
	// temperature; the error probability then follows the Gaussian tail).
	TempSensitivity float64 `json:"temp_sensitivity"`
	// UtilSensitivity is the fractional delay increase at full link
	// utilization (supply noise / IR-drop proxy).
	UtilSensitivity float64 `json:"util_sensitivity"`
	// TRefC is the reference temperature in Celsius.
	TRefC float64 `json:"t_ref_c"`
	// DoubleBitFraction is the fraction of error events that flip two bits
	// (SECDED-detectable but uncorrectable); the rest flip one bit.
	DoubleBitFraction float64 `json:"double_bit_fraction"`
	// RelaxedScale multiplies the error probability when a router operates
	// in Mode 3 (timing relaxation); near zero per the paper.
	RelaxedScale float64 `json:"relaxed_scale"`
	// ProcessSigma is the standard deviation of the per-link fractional
	// delay variation (within-die process variation).
	ProcessSigma float64 `json:"process_sigma"`
	// NominalSlack is the fraction of the clock period left as timing
	// slack at the calibration point (e.g. 0.08 = critical path uses 92%
	// of the cycle).
	NominalSlack float64 `json:"nominal_slack"`
	// CriticalPaths is the number of independent critical paths per link
	// stage.
	CriticalPaths int `json:"critical_paths"`
}

// ThermalConfig parameterizes the HotSpot-like RC thermal grid.
type ThermalConfig struct {
	AmbientC      float64 `json:"ambient_c"`       // ambient temperature
	RThetaJA      float64 `json:"r_theta_ja"`      // vertical thermal resistance to ambient (K/W)
	RThetaLateral float64 `json:"r_theta_lateral"` // lateral resistance between adjacent tiles (K/W)
	CThermal      float64 `json:"c_thermal"`       // tile thermal capacitance (J/K)
	UpdatePeriod  int     `json:"update_period"`   // cycles between thermal solves
	InitialC      float64 `json:"initial_c"`       // initial tile temperature
}

// RLConfig parameterizes the tabular Q-learning controller.
type RLConfig struct {
	Alpha      float64 `json:"alpha"`       // learning rate
	Gamma      float64 `json:"gamma"`       // discount rate
	Epsilon    float64 `json:"epsilon"`     // exploration probability
	StepCycles int     `json:"step_cycles"` // cycles per RL time step
	// FreezeAfterPretrain stops learning after the pre-training phase
	// (the paper's RL keeps learning during testing; this enables the
	// DT-style frozen ablation).
	FreezeAfterPretrain bool `json:"freeze_after_pretrain"`
	// SharedTable makes all per-router agents learn into one shared
	// Q-table (n-times the sample rate; see DESIGN.md). The paper's
	// strictly per-router tables are the ablation variant.
	SharedTable bool `json:"shared_table"`
	// AlphaDecay reduces each (state,action) cell's learning rate with
	// its visit count (the paper notes alpha "can be reduced over time"
	// for convergence); Alpha then acts as the initial rate.
	AlphaDecay bool `json:"alpha_decay"`
	// TestEpsilon is the exploration rate used during the measured
	// testing phase (annealed from the pre-training Epsilon; standard
	// practice, and every random mode costs real latency). Set negative
	// to keep Epsilon throughout, as a literal reading of the paper
	// would.
	TestEpsilon float64 `json:"test_epsilon"`
	// DoubleQ enables Double Q-learning (two tables, decoupled action
	// selection/evaluation), removing the max-operator's overestimation
	// bias — an ablation variant; the paper uses plain Q-learning.
	DoubleQ bool `json:"double_q"`
	// ModeMask restricts the RL controllers to the modes whose bits are set
	// (bit m allows Mode m); a masked-out choice steps down to the next
	// cheaper allowed mode. Zero allows all four.
	ModeMask uint8 `json:"mode_mask,omitempty"`
}

// QRouteConfig parameterizes per-router Q-routing (the qroute scheme):
// each router learns a cost table Q[dst][port] from per-hop delivery
// feedback and routes data packets along the learned argmin, restricted
// to minimal productive ports, with the table-routed escape VC class
// guaranteeing deadlock freedom (DESIGN.md §13).
type QRouteConfig struct {
	// Enabled turns learned routing on. Set by the scheme wiring, not by
	// hand: core.NewSim enables it for SchemeQRoute.
	Enabled bool `json:"enabled,omitempty"`
	// Alpha is the Q-routing learning rate (TD step size toward the
	// observed hop cost plus downstream estimate).
	Alpha float64 `json:"alpha"`
	// Epsilon is the probability a head flit explores a uniformly random
	// permitted port instead of the argmin.
	Epsilon float64 `json:"epsilon"`
	// CongestionWeight scales the local congestion penalty (fraction of
	// a candidate output port's data-VC credits consumed downstream)
	// added to the learned cost at selection time, steering greedy
	// choices away from backed-up links before queueing delay fully
	// shows up in the learned hop estimates.
	CongestionWeight float64 `json:"congestion_weight"`
	// EscapeTimeout is how many cycles a routed head flit may wait for an
	// adaptive-class VC grant before it is re-routed onto the escape
	// class (table route), bounding adaptive-class starvation.
	EscapeTimeout int `json:"escape_timeout"`
}

// Default returns the paper's Table II configuration with fault, thermal
// and RL parameters chosen to land operating temperatures in the paper's
// observed [50,100] C range and link utilizations below 0.3 flits/cycle.
func Default() Config {
	return Config{
		Width:          8,
		Height:         8,
		Topology:       TopologyMesh,
		Routing:        RoutingXY,
		VCsPerPort:     4,
		VCDepth:        4,
		FlitBits:       128,
		FlitsPerPacket: 4,
		VoltageV:       1.0,
		FrequencyGHz:   2.0,
		Fault: FaultConfig{
			BaseErrorRate:     0.00002,
			TempSensitivity:   0.0012,
			UtilSensitivity:   0.005,
			TRefC:             50.0,
			DoubleBitFraction: 0.25,
			RelaxedScale:      0.001,
			ProcessSigma:      0.01,
			NominalSlack:      0.08,
			CriticalPaths:     16,
		},
		Thermal: ThermalConfig{
			AmbientC:      45.0,
			RThetaJA:      25.0,
			RThetaLateral: 60.0,
			CThermal:      1.0e-6,
			// Divides the RL step (1000 cycles) exactly so per-epoch
			// leakage accrual is uniform; a non-divisor alternates 3 vs 4
			// accruals per epoch and injects artificial power noise into
			// the RL reward.
			UpdatePeriod: 250,
			InitialC:     55.0,
		},
		QRoute: QRouteConfig{
			// Hop costs are small integers (a few cycles), so a larger
			// alpha than mode control converges within a chaos window.
			Alpha:            0.3,
			Epsilon:          0.05,
			CongestionWeight: 4,
			EscapeTimeout:    8,
		},
		RL: RLConfig{
			Alpha: 0.1,
			Gamma: 0.5,
			// The paper quotes epsilon = 0.1 without distinguishing
			// phases; we explore harder during pre-training and anneal
			// for the measured phase (TestEpsilon).
			Epsilon:     0.2,
			StepCycles:  1000,
			SharedTable: true,
			AlphaDecay:  true,
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
	case c.Routing != RoutingXY && c.Routing != RoutingYX && c.Routing != RoutingWestFirst:
		return fmt.Errorf("config: unknown routing %q", c.Routing)
	case c.TopologyKind() == TopologyTorus && c.Routing == RoutingWestFirst:
		// The west-first turn model assumes a wrap-free grid; on a torus
		// its cycles reappear through the wrap links.
		return fmt.Errorf("config: westfirst routing is mesh-only; torus uses dimension-ordered routing")
	case c.HardFaults != "" && c.Routing == RoutingWestFirst:
		// West-first is coordinate math, blind to dead links; rerouting
		// around a kill needs the deterministic route tables.
		return fmt.Errorf("config: hard faults require deterministic (table) routing; westfirst is unsupported")
	case c.TopologyKind() == TopologyTorus && c.VCsPerPort < 4:
		// The torus dateline rule halves each VC class (data, control)
		// into wrap classes 0 and 1, so both halves need a VC.
		return fmt.Errorf("config: torus needs at least 4 VCs per port for dateline classes, got %d", c.VCsPerPort)
	case c.VCsPerPort < 2:
		return fmt.Errorf("config: need at least 2 VCs per port (data + control), got %d", c.VCsPerPort)
	case c.VCsPerPort > 12:
		// The routers track buffer occupancy in a single 64-bit mask of
		// ports x VCs slots (5 ports x 12 VCs = 60 bits).
		return fmt.Errorf("config: at most 12 VCs per port supported, got %d", c.VCsPerPort)
	case c.VCDepth < 1:
		return fmt.Errorf("config: VC depth must be positive, got %d", c.VCDepth)
	case c.VCDepth > 64:
		// The fabric allocates routers x 5 ports x VCs x depth flit slots up
		// front: at the 64x64, 12-VC ceiling a depth of 64 is 15.7M slots
		// (250 MB).
		return fmt.Errorf("config: VC depth above 64 unsupported, got %d", c.VCDepth)
	case c.FlitBits != 128:
		return fmt.Errorf("config: flit bits must be 128 (two 64-bit words, the only width the flit model has), got %d", c.FlitBits)
	case c.FlitsPerPacket < 1:
		return fmt.Errorf("config: flits per packet must be positive, got %d", c.FlitsPerPacket)
	case c.VoltageV <= 0:
		return fmt.Errorf("config: voltage must be positive, got %g", c.VoltageV)
	case c.FrequencyGHz <= 0:
		return fmt.Errorf("config: frequency must be positive, got %g", c.FrequencyGHz)
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
	if err := c.Thermal.validate(); err != nil {
		return err
	}
	if err := c.RL.validate(); err != nil {
		return err
	}
	return c.validateQRoute()
}

// validateQRoute checks the Q-routing knobs against the rest of the
// configuration. The VC floor doubles on the torus: qroute splits the
// data VCs into escape and adaptive sub-ranges, and the torus dateline
// rule halves each sub-range again.
func (c *Config) validateQRoute() error {
	q := &c.QRoute
	if !q.Enabled {
		return nil
	}
	switch {
	case c.Routing == RoutingWestFirst:
		return fmt.Errorf("config: qroute requires deterministic table routing for its escape class; westfirst is unsupported")
	case c.TopologyKind() == TopologyTorus && c.VCsPerPort < 8:
		return fmt.Errorf("config: qroute on a torus needs at least 8 VCs per port (escape/adaptive x dateline classes), got %d", c.VCsPerPort)
	case c.VCsPerPort < 4:
		return fmt.Errorf("config: qroute needs at least 4 VCs per port (escape + adaptive data classes), got %d", c.VCsPerPort)
	case c.Routers() > 1024:
		return fmt.Errorf("config: qroute tables scale with routers^2; at most 1024 routers supported, got %d", c.Routers())
	case q.Alpha <= 0 || q.Alpha > 1:
		return fmt.Errorf("config: qroute alpha must be in (0,1], got %g", q.Alpha)
	case q.Epsilon < 0 || q.Epsilon > 1:
		return fmt.Errorf("config: qroute epsilon must be in [0,1], got %g", q.Epsilon)
	case q.CongestionWeight < 0:
		return fmt.Errorf("config: qroute congestion weight must be non-negative, got %g", q.CongestionWeight)
	case q.EscapeTimeout < 1:
		return fmt.Errorf("config: qroute escape timeout must be positive, got %d", q.EscapeTimeout)
	}
	return nil
}

func (f *FaultConfig) validate() error {
	switch {
	case f.BaseErrorRate < 0 || f.BaseErrorRate > 1:
		return fmt.Errorf("config: base error rate must be in [0,1], got %g", f.BaseErrorRate)
	case f.DoubleBitFraction < 0 || f.DoubleBitFraction > 1:
		return fmt.Errorf("config: double-bit fraction must be in [0,1], got %g", f.DoubleBitFraction)
	case f.RelaxedScale < 0 || f.RelaxedScale > 1:
		return fmt.Errorf("config: relaxed scale must be in [0,1], got %g", f.RelaxedScale)
	case f.TempSensitivity < 0:
		return fmt.Errorf("config: temperature sensitivity must be non-negative, got %g", f.TempSensitivity)
	case f.UtilSensitivity < 0:
		return fmt.Errorf("config: utilization sensitivity must be non-negative, got %g", f.UtilSensitivity)
	case f.ProcessSigma < 0:
		return fmt.Errorf("config: process sigma must be non-negative, got %g", f.ProcessSigma)
	case f.NominalSlack <= 0 || f.NominalSlack >= 1:
		return fmt.Errorf("config: nominal slack must be in (0,1), got %g", f.NominalSlack)
	case f.CriticalPaths < 1:
		return fmt.Errorf("config: critical paths must be positive, got %d", f.CriticalPaths)
	}
	return nil
}

func (t *ThermalConfig) validate() error {
	switch {
	case t.RThetaJA <= 0 || t.RThetaLateral <= 0:
		return fmt.Errorf("config: thermal resistances must be positive")
	case t.CThermal <= 0:
		return fmt.Errorf("config: thermal capacitance must be positive, got %g", t.CThermal)
	case t.UpdatePeriod < 1:
		return fmt.Errorf("config: thermal update period must be positive, got %d", t.UpdatePeriod)
	}
	return nil
}

func (r *RLConfig) validate() error {
	switch {
	case r.Alpha <= 0 || r.Alpha > 1:
		return fmt.Errorf("config: RL alpha must be in (0,1], got %g", r.Alpha)
	case r.Gamma < 0 || r.Gamma >= 1:
		return fmt.Errorf("config: RL gamma must be in [0,1), got %g", r.Gamma)
	case r.Epsilon < 0 || r.Epsilon > 1:
		return fmt.Errorf("config: RL epsilon must be in [0,1], got %g", r.Epsilon)
	case r.TestEpsilon > 1:
		return fmt.Errorf("config: RL test epsilon must be <= 1, got %g", r.TestEpsilon)
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
func (c *Config) CyclePeriodNS() float64 { return 1.0 / c.FrequencyGHz }

// Load reads a JSON configuration file, filling unset fields from Default.
func Load(path string) (Config, error) {
	c := Default()
	data, err := os.ReadFile(path)
	if err != nil {
		return c, fmt.Errorf("config: %w", err)
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("config: parsing %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// Save writes the configuration as indented JSON.
func (c *Config) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
