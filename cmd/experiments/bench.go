package main

// The -bench-baseline mode locks in a performance baseline for the
// steady-state cycle loop: for every scheme it steps a loaded mesh under
// uniform traffic and records wall-clock speed (router-cycles/s) and
// allocation pressure (allocs and bytes per simulated cycle) into a JSON
// file, by default BENCH_baseline.json at the repository root. Each PR
// that touches the hot path re-runs `-bench-compare` against the
// committed baseline so the perf trajectory is recorded, not remembered.
//
// Beyond the four per-scheme low-load workloads, two scenarios bracket
// the activity spectrum of the active-set stepping path:
//
//   - "idle": a static Mode-0 mesh with zero injection. Nothing moves, so
//     an activity-proportional Step should cost almost nothing; this is
//     where skipping quiet routers pays the most.
//   - "mode2-loaded": a static Mode-2 mesh (flit duplication doubles link
//     traffic) at 5x the baseline rate. Most routers stay busy, so this
//     bounds the bookkeeping overhead the active sets add when there is
//     little to skip.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rlnoc/internal/core"
	"rlnoc/internal/network"
	"rlnoc/internal/traffic"

	"rlnoc"
)

// benchWarmupCycles brings the network to steady state before measuring,
// so baseline numbers reflect the cruising loop, not cold-buffer growth.
const benchWarmupCycles = 2_000

// benchRate is the per-node injection rate (packets/node/cycle) of the
// baseline workload; matches BenchmarkCycleLoop in bench_cycle_test.go.
const benchRate = 0.01

// benchLoadedRate drives the mode2-loaded scenario: heavy enough that the
// active sets stay near-full, still below saturation.
const benchLoadedRate = 0.05

// benchLowRate drives the lowload/lowload-ff bracket: the bottom of the
// paper's injection sweep (one tenth of benchRate), where the fabric
// repeatedly drains between bursts while still exercising the full RL
// scheme on every packet.
const benchLowRate = 0.001

// SchemeBench is one scenario's cycle-loop measurement.
type SchemeBench struct {
	Scheme             string  `json:"scheme"`
	InjectionRate      float64 `json:"injection_rate"`
	Cycles             int64   `json:"cycles"`
	WallSeconds        float64 `json:"wall_seconds"`
	CyclesPerSec       float64 `json:"cycles_per_sec"`
	RouterCyclesPerSec float64 `json:"router_cycles_per_sec"`
	AllocsPerCycle     float64 `json:"allocs_per_cycle"`
	BytesPerCycle      float64 `json:"bytes_per_cycle"`
	// StepWorkers is set for the parallel-stepping sweep scenarios.
	StepWorkers int `json:"step_workers,omitempty"`
	// SpeedupVsW1 is router-cycles/s relative to the 1-worker run of the
	// same fabric sweep (par16-w1 for par16-w4, and so on).
	SpeedupVsW1 float64 `json:"speedup_vs_workers1,omitempty"`
	// MinSpeedup is the scenario's hard floor on SpeedupVsW1, enforced by
	// `-bench-gate speed|all` — but only on hosts with at least
	// StepWorkers CPUs. On a starved host the ratio measures scheduling,
	// not the code, so the gate prints a skip instead.
	MinSpeedup float64 `json:"min_speedup,omitempty"`
	// SpeedupVsPerCycle is cycles/s relative to the per-cycle referee of
	// the same workload (idle-ff against idle, lowload-ff against
	// lowload): the recorded fast-forward win.
	SpeedupVsPerCycle float64 `json:"speedup_vs_percycle,omitempty"`
	// MinCyclesPerSec is a hard absolute floor on CyclesPerSec, enforced
	// by `-bench-gate speed|all`. It backstops the fast-forward
	// scenarios: a regression that silently disables the jump drops them
	// an order of magnitude below the floor, while the floor itself sits
	// far enough under healthy numbers to tolerate slow CI hosts.
	MinCyclesPerSec float64 `json:"min_cycles_per_sec,omitempty"`
	// AllocCeiling is the scenario's absolute allocs/cycle budget,
	// enforced by `-bench-gate allocs|all` in addition to the relative
	// regression check. Zero means no absolute budget.
	AllocCeiling float64 `json:"alloc_ceiling,omitempty"`
}

// BenchBaseline is the serialized baseline file.
type BenchBaseline struct {
	GeneratedAt    string        `json:"generated_at"`
	GoVersion      string        `json:"go_version"`
	Mesh           string        `json:"mesh"`
	InjectionRate  float64       `json:"injection_rate"`
	WarmupCycles   int64         `json:"warmup_cycles"`
	MeasuredCycles int64         `json:"measured_cycles"`
	// HostCPUs records runtime.NumCPU() of the generating host, so a
	// reader knows whether the recorded speedups had cores to run on.
	HostCPUs int           `json:"host_cpus"`
	Schemes  []SchemeBench `json:"schemes"`
}

// benchScenario names one workload of the baseline sweep.
type benchScenario struct {
	name        string
	rate        float64
	scheme      core.Scheme  // adaptive scheme, when static is false
	static      bool         // use a fixed-mode network instead of a scheme
	mode        network.Mode // fixed mode, when static is true
	topology    string       // fabric override; empty keeps the config's fabric
	size        int          // square fabric side override; 0 keeps the config's
	stepWorkers int          // per-Step shard workers; 0 keeps the config's
	snapEvery   int64        // serialize a full checkpoint every N cycles; 0 = never

	// cycleFrac scales the measured-cycle budget (0 means 1.0): the
	// 32x32 and 64x64 sweeps run 4-16x more router-cycles per simulated
	// cycle, so they run proportionally fewer cycles to keep the sweep's
	// wall-clock bounded.
	cycleFrac float64
	// warmup overrides benchWarmupCycles (0 keeps the default). The big
	// fabrics need a longer ramp: their in-flight population approaches
	// steady state over several times the packet latency, and measuring
	// before that point reports pool growth as per-cycle allocation.
	warmup int64
	// fastForward lets the stepping loop use the network's event-horizon
	// jump across quiescent spans (the -ff scenarios). The non-ff twin of
	// the same workload is the per-cycle referee for speedup_vs_percycle.
	fastForward bool

	// minSpeedup, minCyclesPerSec and allocCeiling feed the hard gate
	// columns of SchemeBench (see there).
	minSpeedup      float64
	minCyclesPerSec float64
	allocCeiling    float64
}

// benchAllocCeiling is the absolute allocs/cycle budget on the loaded
// parallel-sweep scenarios: steady state must stay within single-digit
// allocations per simulated cycle (pooled flits and packets, recycled
// staging buffers) no matter the fabric size or worker count.
const benchAllocCeiling = 8

// benchScenarios lists the full sweep: the four schemes at the baseline
// rate, the idle and mode2-loaded brackets described above, plus a torus
// run so the wraparound fabric's routing/VC path stays on the perf radar.
func benchScenarios() []benchScenario {
	var scs []benchScenario
	for _, scheme := range core.Schemes() {
		scs = append(scs, benchScenario{name: string(scheme), rate: benchRate, scheme: scheme})
	}
	scs = append(scs,
		benchScenario{name: "idle", rate: 0, static: true, mode: network.Mode0},
		benchScenario{name: "mode2-loaded", rate: benchLoadedRate, static: true,
			mode: network.Mode2, allocCeiling: benchAllocCeiling},
		benchScenario{name: "torus-rl", rate: benchRate, scheme: core.SchemeRL, topology: "torus"},
		// The checkpoint serializer amortized over the cycle loop: a full
		// Sim snapshot (intern tables, every router/NI/ARQ container, the
		// Q-tables) every 1000 cycles, written to a discard sink so the
		// scenario measures serialization, not disk. Gated by the alloc
		// budget so the walk stays allocation-light as state grows.
		benchScenario{name: "snapshot", rate: benchRate, scheme: core.SchemeRL,
			snapEvery: 1_000, allocCeiling: benchAllocCeiling},
		// The fast-forward bracket: the same workloads with the
		// event-horizon jump enabled. idle-ff skips everything except
		// thermal-window boundaries; lowload-ff runs the full RL scheme at
		// a rate sparse enough that the fabric drains between most
		// packets. Each carries a hard absolute cycles/s floor and pulls
		// in its per-cycle twin as the speedup_vs_percycle referee. The
		// idle-ff floor sits above the per-cycle idle speed of the
		// reference host, so a silently disabled jump fails it outright;
		// the lowload-ff floor sits ~3x under the measured speed (and
		// ~4x above the whole pre-fast-forward baseline family), absorbing
		// host variance while still catching an order-of-magnitude loss.
		benchScenario{name: "idle-ff", rate: 0, static: true, mode: network.Mode0,
			fastForward: true, minCyclesPerSec: 30e6},
		benchScenario{name: "lowload", rate: benchLowRate, scheme: core.SchemeRL},
		benchScenario{name: "lowload-ff", rate: benchLowRate, scheme: core.SchemeRL,
			fastForward: true, minCyclesPerSec: 250e3},
	)
	// Parallel-stepping sweeps: the same loaded Mode-2 workload on 16x16,
	// 32x32 and 64x64 fabrics at several step-worker counts. Results are
	// bit-identical by construction (the equivalence tests pin that);
	// these scenarios track the wall-clock side, feeding the
	// speedup_vs_workers1 column and its hard gate. The 32x32 fabric at 4
	// workers is the headline criterion: 256 routers per shard amortizes
	// the two dispatch rounds per cycle, so on a host with >= 4 CPUs the
	// sweep must clear 1.5x over its own 1-worker run.
	//
	// The injection rate scales as 6/side: the mean uniform-traffic hop
	// count grows linearly with the side, so a constant per-node rate
	// would push the larger fabrics past their bisection capacity. The
	// bench driver is open-loop (no source window), and a saturated
	// fabric grows its queues without bound — the numbers would measure
	// queue reallocation, not the cycle loop. The scaling holds per-link
	// load constant across the sweep at ~60% of the bisection (counting
	// Mode 2's duplication), loaded but convergent.
	type sweepDef struct {
		size   int
		frac   float64
		warmup int64
		ws     []int
	}
	for _, sw := range []sweepDef{
		{size: 16, frac: 1, ws: []int{1, 2, 4}},
		{size: 32, frac: 0.25, warmup: 4_000, ws: []int{1, 2, 4}},
		{size: 64, frac: 0.1, warmup: 8_000, ws: []int{1, 4}},
	} {
		for _, w := range sw.ws {
			sc := benchScenario{
				name: fmt.Sprintf("par%d-w%d", sw.size, w), rate: benchLoadedRate * 6 / float64(sw.size),
				static: true, mode: network.Mode2, size: sw.size, stepWorkers: w,
				cycleFrac: sw.frac, warmup: sw.warmup, allocCeiling: benchAllocCeiling,
			}
			if sw.size == 32 && w == 4 {
				sc.minSpeedup = 1.5
			}
			scs = append(scs, sc)
		}
	}
	return scs
}

// selectScenarios filters the sweep to the named subset (comma-split
// upstream); an empty filter keeps everything. Unknown names are an
// error so a CI subset cannot silently rot. A multi-worker scenario
// pulls in its sweep's 1-worker referee: the speedup column is
// meaningless without it.
func selectScenarios(filter []string) ([]benchScenario, error) {
	all := benchScenarios()
	if len(filter) == 0 {
		return all, nil
	}
	byName := make(map[string]int, len(all))
	for i, sc := range all {
		byName[sc.name] = i
	}
	want := make(map[string]bool, len(filter))
	for _, name := range filter {
		i, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("bench: unknown scenario %q (want one of %v)", name, names(all))
		}
		want[name] = true
		sc := all[i]
		if sc.stepWorkers > 1 {
			want[fmt.Sprintf("par%d-w1", sc.size)] = true
		}
		// A fast-forward scenario pulls in its per-cycle twin: the
		// speedup_vs_percycle column is meaningless without it.
		if ref := strings.TrimSuffix(sc.name, "-ff"); sc.fastForward && ref != sc.name {
			if _, ok := byName[ref]; ok {
				want[ref] = true
			}
		}
	}
	var out []benchScenario
	for _, sc := range all {
		if want[sc.name] {
			out = append(out, sc)
		}
	}
	return out, nil
}

func names(scs []benchScenario) []string {
	out := make([]string, len(scs))
	for i, sc := range scs {
		out[i] = sc.name
	}
	return out
}

// benchRun is a prepared (constructed and warmed-up) scenario awaiting its
// measured phase. The two-stage split exists so -cpuprofile can bracket
// only the measured loops: every scenario is prepared first, then the CPU
// profile starts, then the measured phases run back to back.
type benchRun struct {
	sc     benchScenario
	sim    *core.Sim
	net    *network.Network
	events []traffic.Event
	idx    int
	cycles int64
	warmup int64
}

// prepareBench builds the scenario's network, generates its traffic trace
// and steps through the warmup window.
func prepareBench(cfg rlnoc.Config, sc benchScenario, cycles int64) (*benchRun, error) {
	if cycles < 1 {
		return nil, fmt.Errorf("bench cycles must be positive, got %d", cycles)
	}
	if sc.topology != "" {
		cfg.Topology = sc.topology
	}
	if sc.size > 0 {
		cfg.Width, cfg.Height = sc.size, sc.size
	}
	if sc.stepWorkers > 0 {
		cfg.StepWorkers = sc.stepWorkers
	}
	if sc.cycleFrac > 0 {
		if cycles = int64(float64(cycles) * sc.cycleFrac); cycles < 1 {
			cycles = 1
		}
	}
	// The baseline JSON is compared across machines and sessions; pin the
	// invariant checks off so an RLNOC_CHECKS environment cannot skew it.
	cfg.Checks = "off"
	var (
		sim *core.Sim
		err error
	)
	if sc.static {
		sim, err = core.NewStaticSim(cfg, sc.mode)
	} else {
		sim, err = core.NewSim(cfg, sc.scheme)
	}
	if err != nil {
		return nil, err
	}
	net := sim.Network()
	warmup := int64(benchWarmupCycles)
	if sc.warmup > 0 {
		warmup = sc.warmup
	}
	events, err := traffic.Synthetic(net.Topology(), traffic.Uniform, sc.rate,
		cfg.FlitsPerPacket, warmup+cycles+1, 1)
	if err != nil {
		return nil, err
	}
	r := &benchRun{sc: sc, sim: sim, net: net, events: events, cycles: cycles, warmup: warmup}
	if err := r.step(warmup); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *benchRun) step(until int64) error {
	for r.net.Cycle() < until {
		// Event-horizon jump: on a quiescent fabric nothing changes until
		// the next pending injection, internal boundary (the network
		// clamps to those itself) or snapshot boundary, so skip straight
		// to it. Capped at until-1 so the final iteration still steps
		// normally and the loop exits at exactly `until`, like the
		// per-cycle path.
		if r.sc.fastForward && r.net.Quiescent() {
			target := until - 1
			if r.idx < len(r.events) && r.events[r.idx].Cycle < target {
				target = r.events[r.idx].Cycle
			}
			if s := r.sc.snapEvery; s > 0 {
				if b := r.net.Cycle() - r.net.Cycle()%s + s - 1; b < target {
					target = b
				}
			}
			r.net.FastForwardTo(target)
		}
		for r.idx < len(r.events) && r.events[r.idx].Cycle <= r.net.Cycle() {
			e := r.events[r.idx]
			if _, err := r.net.NewDataPacket(e.Src, e.Dst, e.Flits, r.net.Cycle()); err != nil {
				return err
			}
			r.idx++
		}
		if err := r.net.Step(); err != nil {
			return err
		}
		if r.sc.snapEvery > 0 && r.net.Cycle()%r.sc.snapEvery == 0 {
			if err := r.sim.WriteSnapshot(io.Discard); err != nil {
				return err
			}
		}
	}
	return nil
}

// measure runs the timed window and returns the scenario's numbers.
func (r *benchRun) measure() (SchemeBench, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := r.step(r.warmup + r.cycles); err != nil {
		return SchemeBench{}, err
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	b := SchemeBench{
		Scheme:         r.sc.name,
		InjectionRate:  r.sc.rate,
		Cycles:         r.cycles,
		WallSeconds:    wall,
		AllocsPerCycle: float64(after.Mallocs-before.Mallocs) / float64(r.cycles),
		BytesPerCycle:  float64(after.TotalAlloc-before.TotalAlloc) / float64(r.cycles),
		StepWorkers:     r.sc.stepWorkers,
		MinSpeedup:      r.sc.minSpeedup,
		MinCyclesPerSec: r.sc.minCyclesPerSec,
		AllocCeiling:    r.sc.allocCeiling,
	}
	if wall > 0 {
		b.CyclesPerSec = float64(r.cycles) / wall
		b.RouterCyclesPerSec = b.CyclesPerSec * float64(r.net.Topology().Nodes())
	}
	return b, nil
}

// benchProfiles carries the optional pprof output paths. The CPU profile
// brackets only the measured loops (warmup excluded); the heap profile is
// written once after the last measured phase.
type benchProfiles struct {
	cpu string
	mem string
}

// start begins CPU profiling if requested. Call after all warmups.
func (p benchProfiles) start() (func() error, error) {
	stop := func() error { return nil }
	if p.cpu != "" {
		f, err := os.Create(p.cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stop = func() error {
			pprof.StopCPUProfile()
			return f.Close()
		}
	}
	return stop, nil
}

// writeHeap dumps an allocation profile if requested. Call after the
// measured phases.
func (p benchProfiles) writeHeap() error {
	if p.mem == "" {
		return nil
	}
	f, err := os.Create(p.mem)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize up-to-date allocation statistics
	return pprof.WriteHeapProfile(f)
}

// measureAll prepares every selected scenario (warmups first), then runs
// the measured phases back to back under the optional CPU profile.
func measureAll(cfg rlnoc.Config, cycles int64, filter []string, prof benchProfiles) ([]SchemeBench, error) {
	scenarios, err := selectScenarios(filter)
	if err != nil {
		return nil, err
	}
	var runs []*benchRun
	for _, sc := range scenarios {
		r, err := prepareBench(cfg, sc, cycles)
		if err != nil {
			return nil, fmt.Errorf("bench %s: prepare: %w", sc.name, err)
		}
		runs = append(runs, r)
	}
	stop, err := prof.start()
	if err != nil {
		return nil, err
	}
	var out []SchemeBench
	for _, r := range runs {
		b, err := r.measure()
		if err != nil {
			stop()
			return nil, fmt.Errorf("bench %s: %w", r.sc.name, err)
		}
		out = append(out, b)
	}
	if err := stop(); err != nil {
		return nil, err
	}
	if err := prof.writeHeap(); err != nil {
		return nil, err
	}
	annotateSpeedup(out)
	return out, nil
}

// annotateSpeedup fills the speedup_vs_workers1 ratio on every
// multi-worker scenario, relative to the 1-worker scenario of the same
// sweep family (par16-w4 against par16-w1, par32-w4 against par32-w1,
// and so on; the family is the scenario name up to the "-w" suffix).
// Scenarios with a MinSpeedup floor are gated on it by -bench-compare
// when the host has enough CPUs; the rest stay advisory.
func annotateSpeedup(benches []SchemeBench) {
	base := make(map[string]float64)
	for _, b := range benches {
		if b.StepWorkers == 1 {
			base[benchFamily(b.Scheme)] = b.RouterCyclesPerSec
		}
	}
	for i := range benches {
		if b := base[benchFamily(benches[i].Scheme)]; benches[i].StepWorkers > 1 && b > 0 {
			benches[i].SpeedupVsW1 = benches[i].RouterCyclesPerSec / b
		}
	}
	// Fast-forward scenarios record their win over the per-cycle twin of
	// the same workload (idle-ff vs idle, lowload-ff vs lowload).
	perCycle := make(map[string]float64)
	for _, b := range benches {
		if !strings.HasSuffix(b.Scheme, "-ff") {
			perCycle[b.Scheme] = b.CyclesPerSec
		}
	}
	for i := range benches {
		name := benches[i].Scheme
		if !strings.HasSuffix(name, "-ff") {
			continue
		}
		if ref := perCycle[strings.TrimSuffix(name, "-ff")]; ref > 0 {
			benches[i].SpeedupVsPerCycle = benches[i].CyclesPerSec / ref
		}
	}
}

// benchFamily strips a scenario name's "-wN" worker suffix, grouping the
// members of one parallel sweep.
func benchFamily(name string) string {
	if i := strings.LastIndex(name, "-w"); i >= 0 {
		return name[:i]
	}
	return name
}

// runBenchBaseline measures every scenario and writes the baseline file.
func runBenchBaseline(cfg rlnoc.Config, path string, cycles int64, filter []string, prof benchProfiles) error {
	base := BenchBaseline{
		GeneratedAt:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		Mesh:           fmt.Sprintf("%dx%d", cfg.Width, cfg.Height),
		InjectionRate:  benchRate,
		WarmupCycles:   benchWarmupCycles,
		MeasuredCycles: cycles,
		HostCPUs:       runtime.NumCPU(),
	}
	benches, err := measureAll(cfg, cycles, filter, prof)
	if err != nil {
		return err
	}
	for _, b := range benches {
		base.Schemes = append(base.Schemes, b)
		extra := ""
		if b.SpeedupVsW1 > 0 {
			extra = fmt.Sprintf("  %.2fx vs workers=1", b.SpeedupVsW1)
		}
		if b.SpeedupVsPerCycle > 0 {
			extra += fmt.Sprintf("  %.1fx vs per-cycle", b.SpeedupVsPerCycle)
		}
		fmt.Printf("%-14s %12.0f router-cycles/s  %6.2f allocs/cycle  %8.1f B/cycle%s\n",
			b.Scheme, b.RouterCyclesPerSec, b.AllocsPerCycle, b.BytesPerCycle, extra)
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("baseline written to %s\n", path)
	return nil
}

// runBenchCompare re-measures every scenario and prints the delta against
// a previously emitted baseline file. Which deltas turn into failures is
// selected by gate:
//
//   - "allocs" (the default, and the hard CI gate): fail if any scenario's
//     allocs/cycle regressed by more than 25% over the baseline.
//     Allocation counts are deterministic modulo runtime noise; the
//     headroom tolerates GC-internal allocations without letting a real
//     per-event allocation site (one alloc per flit ~ +100%) slip through.
//   - "speed": fail if any scenario's router-cycles/s dropped by more than
//     25%, or if a scenario with a min_speedup floor (par32-w4: 1.5x)
//     misses it on a host with at least StepWorkers CPUs. On a starved
//     host the speedup criterion prints a skip — the ratio would measure
//     the scheduler, not the code — but the relative-speed check still
//     applies. Scenarios carrying a min_cycles_per_sec floor (the
//     fast-forward brackets) must also clear that absolute cycles/s bar:
//     it catches a silently disabled event-horizon jump, which the
//     relative check would miss if the baseline were regenerated.
//   - "all": both.
func runBenchCompare(cfg rlnoc.Config, path string, cycles int64, gate string, filter []string, prof benchProfiles) error {
	switch gate {
	case "allocs", "speed", "all":
	default:
		return fmt.Errorf("bench-compare: unknown gate %q (want allocs|speed|all)", gate)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("bench-compare: read baseline: %w", err)
	}
	var base BenchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("bench-compare: parse %s: %w", path, err)
	}
	byScheme := make(map[string]SchemeBench, len(base.Schemes))
	for _, b := range base.Schemes {
		byScheme[b.Scheme] = b
	}
	benches, err := measureAll(cfg, cycles, filter, prof)
	if err != nil {
		return err
	}
	var allocRegressed, speedRegressed, speedupMissed, floorMissed []string
	fmt.Printf("comparing against %s (generated %s, %s)\n", path, base.GeneratedAt, base.GoVersion)
	for _, now := range benches {
		if now.MinCyclesPerSec > 0 && now.CyclesPerSec < now.MinCyclesPerSec {
			floorMissed = append(floorMissed, fmt.Sprintf("%s (%.3g < %.3g cycles/s)",
				now.Scheme, now.CyclesPerSec, now.MinCyclesPerSec))
		}
		old, ok := byScheme[now.Scheme]
		if !ok {
			fmt.Printf("%-14s not in baseline: %6.2f allocs/cycle, %12.0f router-cycles/s\n",
				now.Scheme, now.AllocsPerCycle, now.RouterCyclesPerSec)
			continue
		}
		speed := 0.0
		if old.RouterCyclesPerSec > 0 {
			speed = now.RouterCyclesPerSec/old.RouterCyclesPerSec - 1
		}
		extra := ""
		if now.SpeedupVsW1 > 0 {
			extra = fmt.Sprintf("   speedup_vs_workers1 %.2fx", now.SpeedupVsW1)
		}
		if now.SpeedupVsPerCycle > 0 {
			extra += fmt.Sprintf("   speedup_vs_percycle %.1fx", now.SpeedupVsPerCycle)
		}
		fmt.Printf("%-14s allocs/cycle %6.2f -> %6.2f   router-cycles/s %+.1f%%%s\n",
			now.Scheme, old.AllocsPerCycle, now.AllocsPerCycle, speed*100, extra)
		if now.AllocsPerCycle > old.AllocsPerCycle*1.25+0.5 ||
			(now.AllocCeiling > 0 && now.AllocsPerCycle > now.AllocCeiling) {
			allocRegressed = append(allocRegressed, now.Scheme)
		}
		if old.RouterCyclesPerSec > 0 && now.RouterCyclesPerSec < old.RouterCyclesPerSec*0.75 {
			speedRegressed = append(speedRegressed, now.Scheme)
		}
		if now.MinSpeedup > 0 {
			if runtime.NumCPU() < now.StepWorkers {
				fmt.Printf("%-14s speedup floor %.2fx SKIPPED: host has %d CPUs, scenario wants %d workers\n",
					now.Scheme, now.MinSpeedup, runtime.NumCPU(), now.StepWorkers)
			} else if now.SpeedupVsW1 < now.MinSpeedup {
				speedupMissed = append(speedupMissed,
					fmt.Sprintf("%s (%.2fx < %.2fx)", now.Scheme, now.SpeedupVsW1, now.MinSpeedup))
			}
		}
	}
	if (gate == "allocs" || gate == "all") && len(allocRegressed) > 0 {
		return fmt.Errorf("bench-compare: allocs/cycle over budget for %v", allocRegressed)
	}
	if gate == "speed" || gate == "all" {
		if len(speedRegressed) > 0 {
			return fmt.Errorf("bench-compare: router-cycles/s regressed >25%% for %v", speedRegressed)
		}
		if len(speedupMissed) > 0 {
			return fmt.Errorf("bench-compare: speedup_vs_workers1 below floor: %v", speedupMissed)
		}
		if len(floorMissed) > 0 {
			return fmt.Errorf("bench-compare: cycles/s below hard floor: %v", floorMissed)
		}
	}
	return nil
}
