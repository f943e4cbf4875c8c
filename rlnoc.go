// Package rlnoc is the public API of the RL-driven fault-tolerant NoC
// simulator, a from-scratch Go reproduction of "High-performance,
// Energy-efficient, Fault-tolerant Network-on-Chip Design Using
// Reinforcement Learning" (Wang, Louri, Karanth, Bunescu — DATE 2019).
//
// The package wraps the full stack built under internal/: a
// cycle-accurate 2D-mesh wormhole NoC with virtual-channel routers, real
// CRC and SECDED(72,64) coding, link-level ARQ, a VARIUS-like timing-error
// model, a HotSpot-like thermal grid, an ORION-like power model, and four
// fault-tolerant schemes — the reactive CRC baseline, static ARQ+ECC, a
// supervised decision-tree controller, and the paper's proposed per-router
// Q-learning controller.
//
// Quick start:
//
//	cfg := rlnoc.DefaultConfig()
//	res, err := rlnoc.Run(cfg, rlnoc.RL, "canneal")
//	fmt.Println(res.MeanLatency, res.EnergyEfficiency)
//
// To regenerate the paper's figures, run a Suite (all schemes over all
// benchmarks) and derive each figure from it; see cmd/experiments.
package rlnoc

import (
	"fmt"

	"rlnoc/internal/config"
	"rlnoc/internal/core"
	"rlnoc/internal/network"
	"rlnoc/internal/topology"
	"rlnoc/internal/traffic"
)

// Config re-exports the simulation configuration (Table II defaults).
type Config = config.Config

// DefaultConfig returns the paper's Table II configuration: 8x8 2D mesh,
// X-Y routing, 4-stage routers, 4 VCs/port, 128-bit flits, 4 flits/packet,
// 1.0 V, 2.0 GHz, 32 nm-class power constants.
func DefaultConfig() Config { return config.Default() }

// SmallConfig returns a fast 4x4 configuration for tests and examples.
func SmallConfig() Config { return config.Small() }

// LoadConfig reads a JSON configuration file.
func LoadConfig(path string) (Config, error) { return config.Load(path) }

// Scheme identifies a fault-tolerant design.
type Scheme = core.Scheme

// The four schemes of the paper's evaluation.
const (
	CRC Scheme = core.SchemeCRC // reactive end-to-end CRC baseline
	ARQ Scheme = core.SchemeARQ // static per-hop ARQ+ECC
	DT  Scheme = core.SchemeDT  // supervised decision-tree controller
	RL  Scheme = core.SchemeRL  // proposed Q-learning controller
)

// QRoute extends the paper's four schemes with per-router Q-routing:
// the RL mode controller plus learned fault-adaptive next-hop selection
// (see DESIGN.md §13). Not part of Schemes(), so the paper's figures
// keep exactly four bars.
const QRoute Scheme = core.SchemeQRoute

// Schemes returns all schemes in the paper's presentation order.
func Schemes() []Scheme { return core.Schemes() }

// AllSchemes returns every implemented scheme: the paper's four plus
// the qroute extension.
func AllSchemes() []Scheme { return core.AllSchemes() }

// ParseScheme converts a string to a Scheme.
func ParseScheme(s string) (Scheme, error) { return core.ParseScheme(s) }

// Result is the outcome of one run; see core.Result for field docs.
type Result = core.Result

// Benchmarks lists the PARSEC-like workload names.
func Benchmarks() []string {
	bs := traffic.Benchmarks()
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name
	}
	return names
}

// Run executes the full methodology (pre-train, warm-up, measure, drain)
// for one scheme on one named benchmark.
func Run(cfg Config, scheme Scheme, benchmark string) (Result, error) {
	return core.RunBenchmark(cfg, scheme, benchmark)
}

// RunTrace executes the methodology over an explicit injection trace.
func RunTrace(cfg Config, scheme Scheme, events []traffic.Event, label string) (Result, error) {
	return core.RunTrace(cfg, scheme, events, label)
}

// Event re-exports the trace event type.
type Event = traffic.Event

// SyntheticTrace generates a synthetic-pattern trace for the configured
// fabric. Pattern names: uniform, transpose, bitcomplement, bitreverse,
// shuffle, hotspot, neighbor, tornado.
func SyntheticTrace(cfg Config, pattern string, rate float64, cycles int64, seed int64) ([]Event, error) {
	topo, err := topology.FromConfig(cfg)
	if err != nil {
		return nil, err
	}
	return traffic.Synthetic(topo, traffic.Pattern(pattern), rate, cfg.FlitsPerPacket, cycles, seed)
}

// Session gives step-wise control over a run: pre-train, then measure
// with an optional live observer (e.g. to watch the RL agents switch
// modes as the workload and temperatures evolve).
type Session struct {
	sim *core.Sim
}

// Snapshot re-exports the live network view delivered to observers.
type Snapshot = core.Snapshot

// NewSession builds a session for one scheme.
func NewSession(cfg Config, scheme Scheme) (*Session, error) {
	sim, err := core.NewSim(cfg, scheme)
	if err != nil {
		return nil, err
	}
	return &Session{sim: sim}, nil
}

// Pretrain runs the synthetic pre-training phase.
func (s *Session) Pretrain() error { return s.sim.Pretrain() }

// Fork returns an independent session in this one's current state: the
// state is checkpointed in memory and restored into a new simulation, so
// whatever the fork goes on to do is byte-identical to what this session
// would have done, and neither disturbs the other. Pre-train once, then
// Measure each trace on its own fork (DESIGN.md §21). Observers, the
// snapshot policy and a pending Abort are not state and do not carry over.
func (s *Session) Fork() (*Session, error) {
	at, err := s.sim.Checkpoint()
	if err != nil {
		return nil, err
	}
	sim, err := at.Sim()
	if err != nil {
		return nil, err
	}
	return &Session{sim: sim}, nil
}

// Network exposes the live network under the session. Fault-injection
// campaigns use it to audit a finished (or failed) run: the packet
// conservation ledger, dead-router and unreachable-pair counts, and the
// drained state survive Measure returning.
func (s *Session) Network() *network.Network { return s.sim.Network() }

// Observe registers fn to run every `every` cycles during measurement.
func (s *Session) Observe(every int64, fn func(Snapshot)) { s.sim.SetObserver(every, fn) }

// Measure runs the testing phase over events.
func (s *Session) Measure(events []Event, label string) (Result, error) {
	return s.sim.Measure(events, label)
}

// SetSnapshotPolicy enables periodic checkpoints during Measure: every
// `every` cycles, the complete simulation state is written into dir
// (DESIGN.md §15). A checkpoint restores with RestoreSession and resumes
// bit-identically to the uninterrupted run.
func (s *Session) SetSnapshotPolicy(dir string, every int64) {
	s.sim.SetSnapshotPolicy(dir, every)
}

// LastSnapshotPath returns the most recent checkpoint written by the
// snapshot policy ("" if none).
func (s *Session) LastSnapshotPath() string { return s.sim.LastSnapshotPath() }

// Abort requests a cooperative stop of the session's running phase: the
// cycle loop notices within a few hundred iterations and returns an
// error matching IsAbort, with the simulation left at a clean
// inter-cycle boundary — SaveSnapshot there resumes bit-identically.
// Safe to call from any goroutine; the first reason wins.
func (s *Session) Abort(reason error) { s.sim.Abort(reason) }

// IsAbort reports whether err is the result of an Abort call (possibly
// wrapped). Use it to distinguish a deliberate stop from a failed run.
func IsAbort(err error) bool { return core.IsAbort(err) }

// SaveSnapshot writes the complete simulation state to path atomically
// (temp file + fsync + rename), independent of any snapshot policy.
// Typical use: checkpoint on demand after Abort.
func (s *Session) SaveSnapshot(path string) error { return s.sim.SaveSnapshot(path) }

// ResumeMeasure continues the measurement phase of a restored session.
func (s *Session) ResumeMeasure() (Result, error) { return s.sim.ResumeMeasure() }

// RestoreSession rebuilds a session from a checkpoint file. The snapshot
// is self-contained (config, scheme, trace, learned state, full network
// state), so nothing else is needed; call ResumeMeasure to finish the
// interrupted run.
func RestoreSession(path string) (*Session, error) {
	sim, err := core.RestoreSimFile(path)
	if err != nil {
		return nil, err
	}
	return &Session{sim: sim}, nil
}

// RunStaticMode runs a trace with every router pinned to one operation
// mode (0 = ECC bypassed ... 3 = timing relaxation) — the static-mode
// sweep showing no fixed mode dominates across error levels.
func RunStaticMode(cfg Config, mode int, events []Event, label string) (Result, error) {
	if mode < 0 || mode >= int(network.NumModes) {
		return Result{}, fmt.Errorf("rlnoc: mode %d out of range [0,%d)", mode, int(network.NumModes))
	}
	return core.RunTrace(cfg, core.StaticScheme(network.Mode(mode)), events, label)
}

// BenchmarkTrace synthesizes the named PARSEC-like benchmark's trace.
func BenchmarkTrace(cfg Config, benchmark string, cycles int64, seed int64) ([]Event, error) {
	b, err := traffic.BenchmarkByName(benchmark)
	if err != nil {
		return nil, err
	}
	topo, err := topology.FromConfig(cfg)
	if err != nil {
		return nil, err
	}
	return b.Trace(topo, cycles, cfg.FlitsPerPacket, seed)
}
