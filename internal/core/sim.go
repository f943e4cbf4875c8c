package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"rlnoc/internal/config"
	"rlnoc/internal/network"
	"rlnoc/internal/stats"
	"rlnoc/internal/topology"
	"rlnoc/internal/traffic"
)

// topologyOf builds the fabric described by a config.
func topologyOf(cfg config.Config) (topology.Topology, error) {
	return topology.FromConfig(cfg)
}

// pretrainSegments are the synthetic traffic phases of the pre-training
// program. Mixing rates and patterns sweeps the controllers through cool
// and hot, quiet and congested operating points so the learned policy
// covers the state space the benchmarks later visit (the paper pre-trains
// on synthetic traffic for 1M cycles).
var pretrainSegments = []traffic.Segment{
	{Pattern: traffic.Uniform, Rate: 0.001},
	{Pattern: traffic.Uniform, Rate: 0.006},
	{Pattern: traffic.Hotspot, Rate: 0.004},
	{Pattern: traffic.Transpose, Rate: 0.003},
	{Pattern: traffic.Uniform, Rate: 0.009},
	{Pattern: traffic.Neighbor, Rate: 0.002},
}

// Result is the outcome of one benchmark run under one scheme: the raw
// material of every figure in the paper.
type Result struct {
	Scheme    Scheme
	Benchmark string

	// ExecutionCycles is the full testing-phase execution time (trace
	// start to last delivery), the Fig. 7 quantity.
	ExecutionCycles int64
	// Drained reports whether all traffic completed within the cycle cap.
	Drained bool

	// MeanLatency is the average end-to-end packet latency in cycles
	// (Fig. 8).
	MeanLatency float64
	// RetransmittedPacketEq is retransmission traffic in packet
	// equivalents (Fig. 6).
	RetransmittedPacketEq float64

	// Energy over the measurement window, picojoules.
	DynamicPJ float64
	StaticPJ  float64
	TotalPJ   float64
	// DynamicPowerW is the average dynamic power (Fig. 10).
	DynamicPowerW float64
	// EnergyEfficiency is flits delivered per microjoule (Fig. 9 defines
	// efficiency as flits/energy).
	EnergyEfficiency float64

	FlitsDelivered int64

	MeanTempC float64
	MaxTempC  float64

	// ModeDecisions counts controller decisions per operation mode over
	// the whole run (adaptive schemes only).
	ModeDecisions [int(network.NumModes)]int64
	// ModeMeanReward is the mean RL reward observed after each mode
	// (RL scheme only).
	ModeMeanReward [int(network.NumModes)]float64

	Summary stats.Summary
}

// Sim runs one scheme through the paper's phase sequence over a given
// test trace.
type Sim struct {
	cfg    config.Config
	scheme Scheme
	// net owns the scheme's controller: it is reached through
	// net.Controller(), which first settles the cycle-0 consult network.New
	// defers (and a restore cancels).
	net *network.Network

	observerEvery int64
	observer      func(Snapshot)

	// ms is the in-progress measurement phase, held on the Sim (rather
	// than as Measure locals) so a snapshot can carry it and a restored
	// process can resume the loop mid-phase (DESIGN.md §15).
	ms *measureState

	// Snapshot policy: every snapEvery measurement cycles, write a
	// checkpoint into snapDir (0 disables; see SetSnapshotPolicy).
	snapDir   string
	snapEvery int64
	lastSnap  string

	// abortp holds the cooperative-cancellation request, set from any
	// goroutine via Abort and polled by the cycle loop (pollControl, and
	// after every observer call). The loop stops between Steps, so the Sim
	// is left at a clean inter-cycle boundary — snapshot-safe for
	// suspend/resume.
	abortp atomic.Pointer[AbortError]

	// Progress reporting (nocsim -progress): progFn receives the current
	// simulated cycle at wall-clock intervals of at least progEvery. The
	// tick counter keeps the common path to one increment and mask per
	// cycle.
	progEvery time.Duration
	progFn    func(cycle int64)
	progTick  int
	progLast  time.Time
}

// Snapshot is a live view of the running network, delivered to observers
// during the measurement phase (e.g. to watch the RL agents adapt).
type Snapshot struct {
	Cycle        int64
	ModeCounts   [int(network.NumModes)]int // routers currently in each mode
	Modes        []int                      // per-router operation mode
	TempsC       []float64                  // per-router tile temperature
	MeanTempC    float64
	MaxTempC     float64
	DataInFlight int
}

// SetObserver registers fn to be called every `every` cycles of the
// measurement phase.
func (s *Sim) SetObserver(every int64, fn func(Snapshot)) {
	s.observerEvery = every
	s.observer = fn
}

// SetProgress registers fn to be called with the current simulated cycle
// at wall-clock intervals of roughly `every` during the pre-training and
// measurement phases. The reported cycle is the network's cycle counter.
func (s *Sim) SetProgress(every time.Duration, fn func(cycle int64)) {
	s.progEvery = every
	s.progFn = fn
	s.progLast = time.Now()
}

// AbortError is the cooperative-cancellation outcome of a simulation
// loop: the run was stopped between cycles on request (deadline,
// watchdog stall-kill, graceful shutdown), not because the simulation
// failed. The campaign supervisor keys its suspend/requeue handling off
// this type; Reason carries the caller's cause (e.g. context.Canceled).
type AbortError struct{ Reason error }

func (e *AbortError) Error() string { return "core: run aborted: " + e.Reason.Error() }

// Unwrap exposes the abort cause to errors.Is/As chains.
func (e *AbortError) Unwrap() error { return e.Reason }

// IsAbort reports whether err marks a cooperative abort (anywhere in
// its chain).
func IsAbort(err error) bool {
	var ae *AbortError
	return errors.As(err, &ae)
}

// Abort requests that the running cycle loop stop at its next control
// poll (within 256 cycles) or, when called from an observer, before
// the next Step. Safe to call from any goroutine, and before or during a
// run; the first reason wins. The loop returns an
// *AbortError wrapping reason, leaving the Sim at an inter-cycle
// boundary from which SaveSnapshot captures a resumable checkpoint.
func (s *Sim) Abort(reason error) {
	if reason == nil {
		reason = errors.New("abort requested")
	}
	s.abortp.CompareAndSwap(nil, &AbortError{Reason: reason})
}

// Aborted returns the pending abort (nil if none).
func (s *Sim) Aborted() error {
	if e := s.abortp.Load(); e != nil {
		return e
	}
	return nil
}

// HasMeasure reports whether a measurement phase is installed — true
// from Measure/RestoreSim until the phase's Result is produced. An
// aborted Sim with no measure phase (stopped mid-pretrain) has no
// resumable checkpoint shape; supervisors restart those from scratch.
func (s *Sim) HasMeasure() bool { return s.ms != nil }

// pollControl is the cycle loop's per-cycle control hook: every 256
// cycles it checks for a pending abort and fires the progress
// callback when the wall-clock interval has elapsed. It reads but never
// writes simulation state, so byte-identity is unaffected.
func (s *Sim) pollControl() error {
	s.progTick++
	if s.progTick&255 != 0 {
		return nil
	}
	if e := s.abortp.Load(); e != nil {
		return e
	}
	if s.progFn != nil {
		if now := time.Now(); now.Sub(s.progLast) >= s.progEvery {
			s.progLast = now
			s.progFn(s.net.Cycle())
		}
	}
	return nil
}

// onHook reports whether a hook that fires every `every` cycles counted
// from origin fires on cycle; a hook with every <= 0 is off.
func onHook(cycle, origin, every int64) bool {
	return every > 0 && cycle > origin && (cycle-origin)%every == 0
}

func (s *Sim) snapshot() Snapshot {
	snap := Snapshot{
		Cycle:        s.net.Cycle(),
		MeanTempC:    s.net.Thermal().MeanTemperature(),
		MaxTempC:     s.net.Thermal().MaxTemperature(),
		DataInFlight: s.net.DataInFlight(),
	}
	for _, m := range s.net.Modes() {
		snap.ModeCounts[m]++
		snap.Modes = append(snap.Modes, int(m))
	}
	snap.TempsC = append(snap.TempsC, s.net.Thermal().Temperatures()...)
	return snap
}

// NewSim builds the network for a scheme: any name in the scheme table
// (scheme.go), which is how every constructor and every restore picks a
// controller.
func NewSim(cfg config.Config, scheme Scheme) (*Sim, error) {
	// The qroute scheme is the RL scheme plus learned routing; the network
	// reads the flag (validated against the rest of the config) to build
	// its per-router route agents.
	cfg.QRoute.Enabled = scheme == SchemeQRoute
	ctrl, kind, hasECC, err := buildController(scheme, cfg)
	if err != nil {
		return nil, err
	}
	net, err := network.New(cfg, ctrl, kind, hasECC)
	if err != nil {
		return nil, err
	}
	return &Sim{cfg: cfg, scheme: scheme, net: net}, nil
}

// NewStaticSim builds a simulation whose routers are pinned to a single
// operation mode: NewSim under StaticScheme(mode).
func NewStaticSim(cfg config.Config, mode network.Mode) (*Sim, error) {
	return NewSim(cfg, StaticScheme(mode))
}

// Network exposes the underlying network (examples and tests peek at it).
func (s *Sim) Network() *network.Network { return s.net }

// Close does nothing: a Sim holds no goroutines or handles. It is kept
// only for the frozen benchmark module, which calls it
// (benchmark/probe.go).
func (s *Sim) Close() {}

// Config returns the configuration the simulation runs — for a restored
// Sim, the one its snapshot carried.
func (s *Sim) Config() config.Config { return s.cfg }

// Controller exposes the scheme's controller.
func (s *Sim) Controller() network.Controller { return s.net.Controller() }

// Pretrain runs the synthetic pre-training phase: every scheme sees the
// same traffic (so thermal state is comparable); the RL agents learn and
// the DT controller collects its labeled samples, then trains and
// freezes. The phase ends with a drain.
func (s *Sim) Pretrain() error {
	cycles := int64(s.cfg.PretrainCycles)
	if cycles > 0 {
		// Every sim of a (fabric, seed, length) replays the same program,
		// so it comes from the shared, read-only memo (DESIGN.md §19).
		events, err := traffic.SharedProgram(s.net.Topology(), pretrainSegments,
			s.cfg.FlitsPerPacket, cycles, s.cfg.Seed*31+900)
		if err != nil {
			return err
		}
		base := s.net.Cycle()
		in, err := s.accept(events, base)
		if err != nil {
			return err
		}
		// Hitting the cap is not an error: pre-training is warm-up, and
		// under a reactive baseline at a hostile error corner a
		// retransmission storm may legitimately still be draining; the
		// leftovers complete during the next phase's warm-up.
		if _, err := s.drive(in, base+cycles+int64(s.cfg.DrainCycles), nil); err != nil {
			return err
		}
	}
	if t, ok := s.Controller().(trainer); ok {
		if err := t.FinishTraining(); err != nil {
			return err
		}
	}
	if f, ok := s.Controller().(freezer); ok && s.cfg.RL.FreezeAfterPretrain {
		f.Freeze()
	}
	return nil
}

// What a controller may offer beyond network.Controller's Decide. The
// phase sequence asks for each capability where it applies — once per
// phase, never per cycle — instead of naming concrete controllers, so a
// wrapper (benchmark/replica.go's timedController) or a new scheme
// implements only Decide and whichever of these it has. Checkpointing is
// the fifth: a controller that is a snap.Snapshotter can be snapshotted.
type (
	// trainer fits a supervised policy on what pre-training collected.
	trainer interface{ FinishTraining() error }
	// freezer stops learning and exploration after pre-training.
	freezer interface{ Freeze() }
	// annealer takes the measured phase's exploration rate.
	annealer interface{ SetEpsilon(eps float64) }
	// telemetryResetter restarts its counters at the measured phase.
	telemetryResetter interface{ ResetTelemetry() }
	// telemeter reports decisions (and mean reward) per operation mode.
	telemeter interface {
		Telemetry() (counts [int(network.NumModes)]int64, meanReward [int(network.NumModes)]float64)
	}
)

// injector replays a trace through the source-window back-pressure model:
// a node's next event is held while the node has SourceWindow undelivered
// packets outstanding, so a slow (error-ridden) network stretches the
// application's execution time, exactly what Fig. 7 measures.
type injector struct {
	// events is the trace, held (never copied or written) from the caller:
	// possibly a shared memo slice, or the slice a restore decoded.
	events []traffic.Event
	// queues[src] lists, in trace order, the indices into events of src's
	// events: 4 bytes per event where a per-source copy took 32.
	queues [][]int32
	// heads[src] indexes the next pending entry of queues[src]; consuming
	// by index instead of re-slicing keeps the per-cycle injection sweep
	// free of slice-header churn.
	heads []int
	// due[src] is the absolute cycle of queues[src]'s head event (never once
	// the queue is spent): the per-cycle sweep reads this one dense vector
	// and opens a queue only when its head is due.
	// Derived from heads and base (sync): rebuilt on restore, never
	// serialized.
	due       []int64
	remaining int
	window    int
	base      int64
}

// accept is the one place a phase takes in a trace (whose cycles are
// relative to base): a trace file, an API caller's slice and a decoded
// snapshot all pass traffic.Validate against the fabric here, so a bad
// endpoint, ordering or flit count is an error naming the event rather
// than an index panic mid-run.
func (s *Sim) accept(events []traffic.Event, base int64) (*injector, error) {
	if err := traffic.Validate(s.net.Topology(), events); err != nil {
		return nil, err
	}
	if len(events) > math.MaxInt32 {
		return nil, fmt.Errorf("core: trace of %d events exceeds the injector's %d", len(events), math.MaxInt32)
	}
	return newInjector(events, s.cfg.Routers(), s.cfg.SourceWindow, base), nil
}

// newInjector indexes events (which it never modifies, and which may be a
// shared trace) into per-source queues carved from one slab.
func newInjector(events []traffic.Event, nodes int, window int, base int64) *injector {
	in := &injector{events: events, queues: make([][]int32, nodes), heads: make([]int, nodes),
		due: make([]int64, nodes), remaining: len(events), window: window, base: base}
	counts := make([]int, nodes)
	for _, e := range events {
		counts[e.Src]++
	}
	slab := make([]int32, len(events))
	for src, n := range counts {
		in.queues[src], slab = slab[:0:n], slab[n:]
	}
	for i, e := range events {
		in.queues[e.Src] = append(in.queues[e.Src], int32(i))
	}
	in.sync()
	return in
}

// never is the due cycle of a spent queue.
const never int64 = math.MaxInt64

// headDue returns the absolute cycle of src's head event.
func (in *injector) headDue(src int) int64 {
	if q, h := in.queues[src], in.heads[src]; h < len(q) {
		return in.base + in.events[q[h]].Cycle
	}
	return never
}

// sync recomputes due from heads and base.
func (in *injector) sync() {
	for src := range in.due {
		in.due[src] = in.headDue(src)
	}
}

func (in *injector) step(net *network.Network, now int64) error {
	for src, due := range in.due {
		if due > now {
			continue
		}
		q := in.queues[src]
		h := in.heads[src]
		for h < len(q) && in.base+in.events[q[h]].Cycle <= now {
			if in.window > 0 && net.SourceOutstanding(src) >= in.window {
				break
			}
			e := &in.events[q[h]]
			if _, err := net.NewDataPacket(e.Src, e.Dst, e.Flits, now); err != nil {
				return err
			}
			h++
			in.remaining--
		}
		in.heads[src] = h
		in.due[src] = in.headDue(src)
	}
	return nil
}

func (in *injector) done() bool { return in.remaining == 0 }

// drive is the cycle loop, the only one: inject, Step, then the periodic
// hooks, every cycle, until everything drains (reporting true) or the
// network reaches capCycle. ms == nil is pre-training: no warm-up edge,
// observer, snapshot or statistics. The warm-up edge acts before the Step
// of its cycle; the observer and snapshot hooks act after the Step that
// reaches their cycle. DESIGN.md §16 says why there is no event-horizon
// jump over idle spans.
func (s *Sim) drive(in *injector, capCycle int64, ms *measureState) (bool, error) {
	net := s.net
	for now := net.Cycle(); now < capCycle; now = net.Cycle() {
		if ms != nil && !ms.started && now >= ms.warmEnd {
			s.startMeasuring(ms, now)
		}
		if err := in.step(net, now); err != nil {
			return false, err
		}
		if err := net.Step(); err != nil {
			return false, err
		}
		c := net.Cycle()
		observed := ms != nil && s.observer != nil && onHook(c, 0, s.observerEvery)
		if observed {
			s.observer(s.snapshot())
		}
		if ms != nil && onHook(c, ms.base, s.snapEvery) {
			if err := s.writeAutoSnapshot(); err != nil {
				return false, err
			}
		}
		// An observer's own Abort stops the loop before the next Step; any
		// other waits for the control poll.
		if observed {
			if e := s.abortp.Load(); e != nil {
				return false, e
			}
		}
		if err := s.pollControl(); err != nil {
			return false, err
		}
		if in.done() && net.Drained() {
			return true, nil
		}
	}
	return false, nil
}

// measureState is the complete bookkeeping of an in-progress
// measurement phase. Everything a resumed process needs to re-enter the
// loop at the exact cycle it left lives here: the phase boundaries, the
// energy-meter baselines captured at warm-up end, and the injector
// cursors (the events themselves are serialized so the restored side
// needs no access to the original trace file).
type measureState struct {
	label  string
	events []traffic.Event
	in     *injector

	base     int64
	warmEnd  int64
	capCycle int64

	dynStart     float64
	totStart     float64
	measureStart int64
	started      bool
	drained      bool
}

// beginMeasure installs a fresh measurement phase over events.
func (s *Sim) beginMeasure(events []traffic.Event, label string) error {
	base := s.net.Cycle()
	in, err := s.accept(events, base)
	if err != nil {
		return err
	}
	var traceLen int64
	if len(events) > 0 {
		traceLen = events[len(events)-1].Cycle
	}
	s.ms = &measureState{
		label:    label,
		events:   events,
		in:       in,
		base:     base,
		warmEnd:  base + int64(s.cfg.WarmupCycles),
		capCycle: base + traceLen + int64(s.cfg.WarmupCycles) + int64(s.cfg.MaxCycles) + int64(s.cfg.DrainCycles),
	}
	return nil
}

// startMeasuring is the warm-up edge: statistics switch on and the energy
// baselines are captured at cycle now.
func (s *Sim) startMeasuring(ms *measureState, now int64) {
	s.net.Stats().SetMeasuring(true)
	ms.dynStart = s.net.Meter().TotalDynamicPJ()
	ms.totStart = s.net.Meter().TotalPJ()
	ms.measureStart = now
	ms.started = true
	// Anneal exploration for the measured phase (every random mode costs
	// real latency; see config.RLConfig.TestEpsilon).
	if a, ok := s.Controller().(annealer); ok && s.cfg.RL.TestEpsilon >= 0 {
		a.SetEpsilon(s.cfg.RL.TestEpsilon)
	}
	if t, ok := s.Controller().(telemetryResetter); ok {
		t.ResetTelemetry()
	}
}

// Measure runs the testing phase over events and collects the Result.
// The warm-up prefix is excluded from statistics but included in the
// execution time, mirroring the paper's methodology.
func (s *Sim) Measure(events []traffic.Event, label string) (Result, error) {
	if err := s.beginMeasure(events, label); err != nil {
		return Result{}, err
	}
	return s.ResumeMeasure()
}

// ResumeMeasure drives the installed measurement phase — fresh from
// Measure, or restored mid-run by RestoreSim — to completion from the
// current cycle and collects the Result.
func (s *Sim) ResumeMeasure() (Result, error) {
	net, ms := s.net, s.ms
	if ms == nil {
		return Result{}, fmt.Errorf("core: no measurement phase to resume")
	}
	drained, err := s.drive(ms.in, ms.capCycle, ms)
	if err != nil {
		return Result{}, err
	}
	ms.drained = drained
	net.Stats().SetMeasuring(false)
	if !ms.started {
		return Result{}, fmt.Errorf("core: warm-up longer than the run")
	}

	sum := net.Stats().Summarize()
	dyn := net.Meter().TotalDynamicPJ() - ms.dynStart
	tot := net.Meter().TotalPJ() - ms.totStart
	measuredCycles := net.Cycle() - ms.measureStart
	measuredNS := float64(measuredCycles) * s.cfg.CyclePeriodNS()

	res := Result{
		Scheme:                s.scheme,
		Benchmark:             ms.label,
		ExecutionCycles:       net.LastDeliveryCycle() - ms.base,
		Drained:               ms.drained,
		MeanLatency:           sum.MeanLatency,
		RetransmittedPacketEq: net.Stats().RetransmittedPacketEquivalents(s.cfg.FlitsPerPacket),
		DynamicPJ:             dyn,
		StaticPJ:              tot - dyn,
		TotalPJ:               tot,
		FlitsDelivered:        sum.FlitsDelivered,
		MeanTempC:             net.Thermal().MeanTemperature(),
		MaxTempC:              net.Thermal().MaxTemperature(),
		Summary:               sum,
	}
	if measuredNS > 0 {
		res.DynamicPowerW = dyn / measuredNS / 1000 // pJ/ns = mW
	}
	if tot > 0 {
		res.EnergyEfficiency = float64(sum.FlitsDelivered) / (tot * 1e-6) // flits per microjoule
	}
	if t, ok := s.Controller().(telemeter); ok {
		res.ModeDecisions, res.ModeMeanReward = t.Telemetry()
	}
	return res, nil
}

// Run executes the paper's methodology on an already-built Sim: pre-train
// on synthetic traffic, then warm up, measure and drain over events.
func (s *Sim) Run(events []traffic.Event, label string) (Result, error) {
	if err := s.Pretrain(); err != nil {
		return Result{}, err
	}
	return s.Measure(events, label)
}

// BenchmarkTrace synthesizes the test trace every run of the named
// benchmark under cfg replays: MaxCycles long, seeded from cfg.Seed. The
// slice comes from the shared memo (DESIGN.md §19) and is read-only.
func BenchmarkTrace(cfg config.Config, benchmark string) ([]traffic.Event, error) {
	b, err := traffic.BenchmarkByName(benchmark)
	if err != nil {
		return nil, err
	}
	topo, err := topologyOf(cfg)
	if err != nil {
		return nil, err
	}
	return b.SharedTrace(topo, int64(cfg.MaxCycles), cfg.FlitsPerPacket, cfg.Seed*31+1300)
}

// RunTrace executes the full methodology (pre-train, test, measure) for
// one scheme over one trace.
func RunTrace(cfg config.Config, scheme Scheme, events []traffic.Event, label string) (Result, error) {
	sim, err := NewSim(cfg, scheme)
	if err != nil {
		return Result{}, err
	}
	return sim.Run(events, label)
}

// RunBenchmark synthesizes the named PARSEC-like benchmark's trace and
// runs it under a scheme.
func RunBenchmark(cfg config.Config, scheme Scheme, benchmark string) (Result, error) {
	sim, err := NewSim(cfg, scheme)
	if err != nil {
		return Result{}, err
	}
	events, err := BenchmarkTrace(cfg, benchmark)
	if err != nil {
		return Result{}, err
	}
	return sim.Run(events, benchmark)
}
