package main

// The five workloads. Each is one thing a user of the simulator runs,
// driven only through the public functions of package rlnoc and the
// internal/* layers; nothing here reaches into unexported state.
//
// A workload is a set-up function that derives every input from the seed
// and returns the timed region as a closure. One repetition is
// set-up -> runtime.GC -> timed region -> checks, and a run repeats it
// for --seconds and reports the best repetition (see measure.go).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rlnoc"
	"rlnoc/internal/campaign"
	"rlnoc/internal/config"
	"rlnoc/internal/core"
	"rlnoc/internal/network"
	"rlnoc/internal/topology"
	"rlnoc/internal/traffic"
)

// sizes holds every scale-dependent number. "full" is what the driver
// measures; "tiny" exists so the smoke test covers every code path in
// seconds.
type sizes struct {
	fabric int // routers per side
	drain  int // drain cap of parsec_rl and restore_resume

	parsecPretrain, parsecWarmup, parsecTrace int

	loadedWarmup int
	loadedCycles int64

	suitePretrain, suiteWarmup, suiteMax, suiteDrain int

	chaosRuns, chaosWarmup, chaosMax, chaosDrain int
	chaosSnapEvery                               int64

	restorePretrain, restoreWarmup, restoreTrace int
	restoreSnapEvery                             int64
	restoreProbes                                int

	// The traced run's battery.
	kernelOps, kernelReps         int // iterations of ns-scale loops; samples of ms-scale ones
	journalAppends, dtSamples     int
	parFabric                     int
	parCycles                     int64
	probeCampaignRuns, snapProbes int

	minReps int
}

var scales = map[string]sizes{
	// One repetition of each workload takes 1.3-3 s on a 2-core host, so a
	// 10 s run has four to seven of them. The cycle counts are
	// config.Default()'s phases at a quarter (parsec_rl) or a third
	// (suite_fig) with the 8x8 fabric and every model constant untouched.
	"full": {
		fabric:         8,
		parsecPretrain: 150_000, parsecWarmup: 12_500, parsecTrace: 50_000,
		loadedWarmup: 5_000, loadedCycles: 30_000,
		suitePretrain: 36_000, suiteWarmup: 6_000, suiteMax: 15_000, suiteDrain: 20_000,
		chaosRuns: 16, chaosWarmup: 2_000, chaosMax: 20_000, chaosDrain: 10_000, chaosSnapEvery: 1_000,
		restorePretrain: 25_000, restoreWarmup: 12_500, restoreTrace: 50_000,
		restoreSnapEvery: 5_000, restoreProbes: 30,
		drain:     50_000,
		kernelOps: 1_000_000, kernelReps: 9,
		parFabric: 16, parCycles: 3_000,
		probeCampaignRuns: 4, snapProbes: 30,
		journalAppends: 200, dtSamples: 4_000, minReps: 3,
	},
	"tiny": {
		fabric:         4,
		parsecPretrain: 4_000, parsecWarmup: 1_000, parsecTrace: 4_000,
		loadedWarmup: 500, loadedCycles: 2_000,
		suitePretrain: 3_000, suiteWarmup: 500, suiteMax: 2_000, suiteDrain: 3_000,
		chaosRuns: 2, chaosWarmup: 500, chaosMax: 5_000, chaosDrain: 3_000, chaosSnapEvery: 1_000,
		restorePretrain: 2_000, restoreWarmup: 1_000, restoreTrace: 4_000,
		restoreSnapEvery: 500, restoreProbes: 4,
		drain:     5_000,
		kernelOps: 2_000, kernelReps: 3,
		parFabric: 4, parCycles: 300,
		probeCampaignRuns: 1, snapProbes: 3,
		journalAppends: 5, dtSamples: 200, minReps: 1,
	},
}

// env is what a workload sees of the run.
type env struct {
	seed    int64
	sz      sizes
	workers int     // min(2, nproc): no workload uses more goroutines
	repDir  string  // scratch directory of the current repetition
	tr      *tracer // nil when untraced
}

// baseConfig is config.Default() on the scale's fabric.
//
// The run's seed generates the inputs: the traces, and for the campaign
// the kill schedules. Where the API takes a trace from the caller
// (parsec_rl, loaded_mode2, restore_resume) only the trace depends on the
// seed and Config.Seed stays at its default: the policy the agents learn,
// and with it the simulated work, swings by a quarter with Config.Seed,
// which would drown any regression this benchmark is meant to show.
// RunSuite and BuildChaos derive their traces and kill schedules from
// Config.Seed themselves, so there the seed is Config.Seed (seededConfig),
// and a dozen or more sims average the swing out.
func (e *env) baseConfig() config.Config {
	cfg := config.Default()
	cfg.Width, cfg.Height = e.sz.fabric, e.sz.fabric
	return cfg
}

func (e *env) seededConfig() config.Config {
	cfg := e.baseConfig()
	cfg.Seed = e.seed
	return cfg
}

// namedResult is one simulated Result under a stable name, the unit the
// pinned digests are computed over.
type namedResult struct {
	ID     string      `json:"id"`
	Result core.Result `json:"result"`
}

// outcome is what one timed region produced.
type outcome struct {
	cycles    int64 // simulated cycles, fast-forwarded spans included
	attempted int   // operations: sim runs, campaign jobs, restore probes, resumes
	failures  []string
	results   []namedResult
	extra     map[string]float64 // workload-scoped numbers, reported beside the metrics
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// addSim records one finished simulation that covered the given number of
// simulated cycles as an operation. A run that was required to drain and
// did not is a failed operation.
func (o *outcome) addSim(id string, cycles int64, res core.Result, err error) {
	switch {
	case err != nil:
		o.attempted++
		o.fail("%s: %v", id, err)
		return
	case !res.Drained:
		o.fail("%s: not drained after %d cycles", id, res.ExecutionCycles)
	}
	o.addUndrained(id, cycles, res)
}

// addUndrained records a finished simulation that is not required to drain.
func (o *outcome) addUndrained(id string, cycles int64, res core.Result) {
	o.attempted++
	o.cycles += cycles
	o.results = append(o.results, namedResult{id, res})
}

// simCycles is the nominal number of cycles one simulation covered: the
// configured pre-training span plus the measured execution time.
func simCycles(cfg config.Config, res core.Result) int64 {
	return int64(cfg.PretrainCycles) + res.ExecutionCycles
}

// simSpec names one simulation completely: the workload's representative
// sim, which the traced run takes apart layer by layer (probe.go).
type simSpec struct {
	cfg    config.Config
	scheme core.Scheme  // "" runs every router pinned to mode
	mode   network.Mode // used when scheme is ""
	label  string
	trace  func() ([]traffic.Event, error)
}

func (s simSpec) newSim() (*core.Sim, error) {
	if s.scheme == "" {
		return core.NewStaticSim(s.cfg, s.mode)
	}
	return core.NewSim(s.cfg, s.scheme)
}

type workload struct {
	name, why string
	// setup makes the inputs and returns the timed region.
	setup func(e *env) (timed func() outcome, err error)
	// probe is the representative simulation of the workload.
	probe func(e *env) (simSpec, error)
}

var workloads = []workload{
	{
		name:  "parsec_rl",
		why:   "the paper's unit of work: RL scheme pre-trains then replays canneal at low load; fast-forward eligible, pre-train dominated",
		setup: setupParsecRL,
		probe: func(e *env) (simSpec, error) { return parsecSpec(e), nil },
	},
	{
		name:  "loaded_mode2",
		why:   "saturation-side regime: uniform 0.03 pkts/node/cycle with every router in Mode 2; network.Step is the whole run, fast-forward and control never fire",
		setup: setupLoadedMode2,
		probe: func(e *env) (simSpec, error) { return loadedSpec(e), nil },
	},
	{
		name:  "suite_fig",
		why:   "reduced Fig. 6-10 regeneration: four schemes x three traces in parallel; the only one with CRC retransmission storms, DT training and per-sim trace re-synthesis",
		setup: setupSuiteFig,
		probe: func(e *env) (simSpec, error) { return suiteSpec(e), nil },
	},
	{
		name:  "chaos_campaign",
		why:   "the nocserve path: many short kill-schedule jobs through the campaign engine with checkpoints on; construction and snapshot writes dominate",
		setup: setupChaosCampaign,
		probe: chaosSpec,
	},
	{
		name:  "restore_resume",
		why:   "checkpoint read path: restore-to-first-cycle probes and full resumes that must equal the uninterrupted run; opposes chaos_campaign on codec trade-offs",
		setup: setupRestoreResume,
		probe: func(e *env) (simSpec, error) { return restoreSpec(e), nil },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- parsec_rl -------------------------------------------------------------

// cannealSpec is the rl scheme over a canneal trace with the given phase
// lengths: the sim of parsec_rl and of restore_resume.
func cannealSpec(e *env, pretrain, warmup, trace int) simSpec {
	cfg := e.baseConfig()
	cfg.PretrainCycles = pretrain
	cfg.WarmupCycles = warmup
	cfg.MaxCycles = trace
	cfg.DrainCycles = e.sz.drain
	return simSpec{cfg: cfg, scheme: core.SchemeRL, label: "canneal", trace: func() ([]traffic.Event, error) {
		return rlnoc.BenchmarkTrace(cfg, "canneal", int64(cfg.MaxCycles), e.seed*31+1300)
	}}
}

func parsecSpec(e *env) simSpec {
	return cannealSpec(e, e.sz.parsecPretrain, e.sz.parsecWarmup, e.sz.parsecTrace)
}

func setupParsecRL(e *env) (func() outcome, error) {
	spec := parsecSpec(e)
	end := e.tr.begin("traffic.gen")
	events, err := spec.trace()
	end()
	if err != nil {
		return nil, err
	}
	end = e.tr.begin("core.new_sim")
	sess, err := rlnoc.NewSession(spec.cfg, rlnoc.RL)
	end()
	if err != nil {
		return nil, err
	}
	return func() outcome {
		var out outcome
		end := e.tr.begin("core.pretrain")
		err := sess.Pretrain()
		end()
		var res rlnoc.Result
		if err == nil {
			end = e.tr.begin("core.measure")
			res, err = sess.Measure(events, spec.label)
			end()
		}
		out.addSim("rl/canneal", simCycles(spec.cfg, res), res, err)
		if led := sess.Network().ConservationLedger(); !led.Balanced() {
			out.fail("rl/canneal: unbalanced ledger: %s", led)
		}
		return out
	}, nil
}

// --- loaded_mode2 ----------------------------------------------------------

func loadedSpec(e *env) simSpec {
	cfg := e.baseConfig()
	cfg.PretrainCycles = 0
	cfg.WarmupCycles = e.sz.loadedWarmup
	return simSpec{cfg: cfg, mode: network.Mode2, label: "uniform-0.03", trace: func() ([]traffic.Event, error) {
		return rlnoc.SyntheticTrace(cfg, "uniform", 0.03, e.sz.loadedCycles, e.seed*31+7)
	}}
}

func setupLoadedMode2(e *env) (func() outcome, error) {
	spec := loadedSpec(e)
	end := e.tr.begin("traffic.gen")
	events, err := spec.trace()
	end()
	if err != nil {
		return nil, err
	}
	if err := validateTrace(spec.cfg, events); err != nil {
		return nil, err
	}
	return func() outcome {
		var out outcome
		end := e.tr.begin("rlnoc.run_static_mode")
		res, err := rlnoc.RunStaticMode(spec.cfg, int(spec.mode), events, spec.label)
		end()
		out.addSim("mode2/uniform", simCycles(spec.cfg, res), res, err)
		return out
	}, nil
}

// validateTrace checks a generated trace against the fabric it will be
// replayed on, so a generator bug fails set-up instead of wedging a sim.
func validateTrace(cfg config.Config, events []traffic.Event) error {
	topo, err := topology.FromConfig(cfg)
	if err != nil {
		return err
	}
	return traffic.Validate(topo, events)
}

// --- suite_fig -------------------------------------------------------------

// suiteBenchmarks: x264 is held back from the five workloads
// EXPERIMENTS.md was tuned on.
var suiteBenchmarks = []string{"blackscholes", "canneal", "x264"}

const heldBack = "x264"

func suiteConfig(e *env) config.Config {
	cfg := e.seededConfig()
	cfg.PretrainCycles = e.sz.suitePretrain
	cfg.WarmupCycles = e.sz.suiteWarmup
	cfg.MaxCycles = e.sz.suiteMax
	cfg.DrainCycles = e.sz.suiteDrain
	cfg.SuiteWorkers = e.workers
	return cfg
}

// suiteTrace reproduces the trace core.RunBenchmark synthesises for a
// suite cell, so set-up can validate the suite's inputs.
func suiteTrace(cfg config.Config, bench string) ([]traffic.Event, error) {
	return rlnoc.BenchmarkTrace(cfg, bench, int64(cfg.MaxCycles), cfg.Seed*31+1300)
}

func suiteSpec(e *env) simSpec {
	cfg := suiteConfig(e)
	return simSpec{cfg: cfg, scheme: core.SchemeRL, label: heldBack, trace: func() ([]traffic.Event, error) {
		return suiteTrace(cfg, heldBack)
	}}
}

func setupSuiteFig(e *env) (func() outcome, error) {
	cfg := suiteConfig(e)
	// RunSuite synthesises its traces itself; set-up synthesises the same
	// three and validates them.
	for _, b := range suiteBenchmarks {
		end := e.tr.begin("traffic.gen")
		events, err := suiteTrace(cfg, b)
		end()
		if err != nil {
			return nil, err
		}
		if err := validateTrace(cfg, events); err != nil {
			return nil, fmt.Errorf("%s: %w", b, err)
		}
	}
	return func() outcome {
		var out outcome
		end := e.tr.begin("rlnoc.run_suite")
		suite, err := rlnoc.RunSuite(cfg, suiteBenchmarks)
		end()
		if err != nil {
			out.attempted = len(suiteBenchmarks) * len(rlnoc.Schemes())
			out.fail("suite: %v", err)
			return out
		}
		for _, b := range suiteBenchmarks {
			for _, sc := range rlnoc.Schemes() {
				// The reactive CRC baseline may legitimately still be in a
				// retransmission storm at the cycle cap; draining is
				// required of the protected schemes only.
				res := suite.Results[b][sc]
				id := fmt.Sprintf("%s/%s", sc, b)
				if sc == rlnoc.CRC {
					out.addUndrained(id, simCycles(cfg, res), res)
				} else {
					out.addSim(id, simCycles(cfg, res), res, nil)
				}
			}
		}
		out.extra = map[string]float64{
			"paper_rel_err":          paperRelErr(suite, suiteBenchmarks),
			"paper_rel_err_heldback": paperRelErr(suite, []string{heldBack}),
		}
		return out
	}, nil
}

// paperCells are the eleven cross-benchmark means EXPERIMENTS.md states
// for the paper (figure, scheme, value normalised to the CRC baseline).
var paperCells = []struct {
	fig    rlnoc.FigureID
	scheme rlnoc.Scheme
	paper  float64
}{
	{rlnoc.Fig6Retransmission, rlnoc.ARQ, 0.67}, {rlnoc.Fig6Retransmission, rlnoc.DT, 0.61}, {rlnoc.Fig6Retransmission, rlnoc.RL, 0.52},
	{rlnoc.Fig7Speedup, rlnoc.RL, 1.25},
	{rlnoc.Fig8Latency, rlnoc.ARQ, 0.70}, {rlnoc.Fig8Latency, rlnoc.DT, 0.50}, {rlnoc.Fig8Latency, rlnoc.RL, 0.45},
	{rlnoc.Fig9EnergyEfficiency, rlnoc.DT, 1.43}, {rlnoc.Fig9EnergyEfficiency, rlnoc.RL, 1.64},
	{rlnoc.Fig10DynamicPower, rlnoc.DT, 0.65}, {rlnoc.Fig10DynamicPower, rlnoc.RL, 0.54},
}

// paperRelErr is the mean of |measured - paper| / paper over paperCells,
// with the measured means taken over the given benchmarks. Reduced scale:
// three traces and shortened phases, not the paper's full sweep.
func paperRelErr(full *rlnoc.Suite, benchmarks []string) float64 {
	sub := &rlnoc.Suite{Benchmarks: benchmarks, Results: full.Results}
	var sum float64
	for _, c := range paperCells {
		f, err := sub.Figure(c.fig)
		if err != nil {
			return -1
		}
		d := f.Mean[c.scheme] - c.paper
		if d < 0 {
			d = -d
		}
		sum += d / c.paper
	}
	return sum / float64(len(paperCells))
}

// --- chaos_campaign --------------------------------------------------------

// chaosBase sets the warm-up explicitly: at config.Default() the 50 k
// warm-up outlasts the 4 k-cycle chaos trace and every arm dies with
// "warm-up longer than the run" (README, findings).
func chaosBase(e *env) config.Config {
	base := e.seededConfig()
	base.WarmupCycles = e.sz.chaosWarmup
	base.MaxCycles = e.sz.chaosMax
	base.DrainCycles = e.sz.chaosDrain
	return base
}

func chaosSpec(e *env) (simSpec, error) {
	plan, err := campaign.BuildChaos(chaosBase(e), 1, 0, campaign.InjectSpec{})
	if err != nil {
		return simSpec{}, err
	}
	job := plan.Specs[0] // mesh fabric, rl arm
	// Chaos jobs skip pre-training (Spec.Pretrain is false), so the
	// representative sim does too.
	job.Config.PretrainCycles = 0
	return simSpec{cfg: job.Config, scheme: core.Scheme(job.Scheme), label: job.Label, trace: func() ([]traffic.Event, error) {
		return job.Trace.Events(job.Config)
	}}, nil
}

// campaignRun is what one engine run of a spec list yields.
type campaignRun struct {
	wall               time.Duration
	results            []campaign.JobResult
	checkpoints        int
	bytes              int64
	retries, recovered int
}

// runCampaign drives specs through an engine rooted at dir: the Run ->
// Results -> Close half of the nocserve path (Open and Submit are set-up).
func runCampaign(e *env, eng *campaign.Engine) (campaignRun, error) {
	var run campaignRun
	t0 := time.Now()
	end := e.tr.begin("campaign.run")
	err := eng.Run(context.Background())
	end()
	if err != nil {
		_ = eng.Close() // the run already failed; its error is the one reported
		return run, err
	}
	run.results = eng.Results()
	for _, r := range run.results {
		run.retries += r.Attempts
		if r.Recovered {
			run.recovered++
		}
	}
	dir := eng.Dir()
	if err := eng.Close(); err != nil {
		return run, err
	}
	run.wall = time.Since(t0)
	snaps, err := filepath.Glob(filepath.Join(dir, "jobs", "*", "snapshot-*.rlns"))
	if err != nil {
		return run, err
	}
	for _, p := range snaps {
		if st, err := os.Stat(p); err == nil {
			run.checkpoints++
			run.bytes += st.Size()
		}
	}
	return run, nil
}

// openCampaign validates specs (the pre-flight a user does before handing
// a manifest to the daemon: every spec valid, every trace materialises
// and fits its fabric), then opens an engine under dir and submits them.
func openCampaign(e *env, dir string, specs []campaign.Spec) (*campaign.Engine, error) {
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		events, err := s.Trace.Events(s.Config)
		if err != nil {
			return nil, err
		}
		if err := validateTrace(s.Config, events); err != nil {
			return nil, fmt.Errorf("%s: %w", s.ID, err)
		}
	}
	end := e.tr.begin("campaign.open_submit")
	defer end()
	eng, err := campaign.Open(campaign.Options{Dir: dir, Workers: e.workers, Seed: e.seed})
	if err != nil {
		return nil, err
	}
	if err := eng.Submit(specs...); err != nil {
		_ = eng.Close() // Submit's error is the one reported
		return nil, err
	}
	return eng, nil
}

// addJobs records campaign job results as operations. Drained, budget and
// watchdog are classifications of an honest run; dead, wedged and deadline
// are failures.
func (o *outcome) addJobs(results []campaign.JobResult) {
	for _, r := range results {
		o.attempted++
		switch r.Outcome {
		case campaign.OutcomeDead, campaign.OutcomeWedged, campaign.OutcomeDeadline:
			o.fail("%s: %s %s", r.ID, r.Outcome, r.Err)
			continue
		}
		o.cycles += r.Result.ExecutionCycles
		o.results = append(o.results, namedResult{r.ID, r.Result})
	}
}

func setupChaosCampaign(e *env) (func() outcome, error) {
	plan, err := campaign.BuildChaos(chaosBase(e), e.sz.chaosRuns, e.sz.chaosSnapEvery, campaign.InjectSpec{})
	if err != nil {
		return nil, err
	}
	eng, err := openCampaign(e, filepath.Join(e.repDir, "campaign"), plan.Specs)
	if err != nil {
		return nil, err
	}
	return func() outcome {
		var out outcome
		run, err := runCampaign(e, eng)
		if err != nil {
			out.attempted = len(plan.Specs)
			out.fail("campaign: %v", err)
			return out
		}
		if len(run.results) != len(plan.Specs) {
			out.fail("campaign: %d results for %d jobs", len(run.results), len(plan.Specs))
		}
		out.addJobs(run.results)
		out.extra = map[string]float64{
			"jobs":                float64(len(run.results)),
			"checkpoints_written": float64(run.checkpoints),
			"checkpoint_bytes":    float64(run.bytes),
			"retries":             float64(run.retries),
			"recovered":           float64(run.recovered),
		}
		return out
	}, nil
}

// --- restore_resume --------------------------------------------------------

func restoreSpec(e *env) simSpec {
	return cannealSpec(e, e.sz.restorePretrain, e.sz.restoreWarmup, e.sz.restoreTrace)
}

var errProbed = errors.New("benchmark: first cycle observed")

// firstCycle restores the checkpoint at path and runs it until the first
// simulated cycle is observed, returning the latency from the restore call
// to that observation.
func firstCycle(path string) (time.Duration, error) {
	t0 := time.Now()
	sess, err := rlnoc.RestoreSession(path)
	if err != nil {
		return 0, err
	}
	var first time.Duration
	sess.Observe(1, func(rlnoc.Snapshot) {
		if first == 0 {
			first = time.Since(t0)
			sess.Abort(errProbed)
		}
	})
	_, err = sess.ResumeMeasure()
	switch {
	case first == 0:
		return 0, fmt.Errorf("restored run ended before its first cycle was observed: %v", err)
	case err != nil && !rlnoc.IsAbort(err):
		return 0, err
	}
	return first, nil
}

func setupRestoreResume(e *env) (func() outcome, error) {
	spec := restoreSpec(e)
	events, err := spec.trace()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.repDir, "checkpoints")
	sess, err := rlnoc.NewSession(spec.cfg, rlnoc.RL)
	if err != nil {
		return nil, err
	}
	if err := sess.Pretrain(); err != nil {
		return nil, err
	}
	sess.SetSnapshotPolicy(dir, e.sz.restoreSnapEvery)
	end := e.tr.begin("core.measure_checkpointed")
	whole, err := sess.Measure(events, spec.label)
	end()
	if err != nil {
		return nil, err
	}
	paths, err := core.ListSnapshots(dir)
	if err != nil {
		return nil, err
	}
	if len(paths) < 4 {
		return nil, fmt.Errorf("restore_resume: only %d checkpoints written", len(paths))
	}
	// ListSnapshots is newest first; resume from 25, 50 and 75 % of the run.
	n := len(paths)
	resumeFrom := []string{paths[n-1-n/4], paths[n-1-n/2], paths[n-1-3*n/4]}

	return func() outcome {
		var out outcome
		// Run during set-up, so not an operation of the timed region;
		// recorded for the digest.
		out.results = append(out.results, namedResult{"rl/canneal/uninterrupted", whole})

		// A fixed number of probes, taking the checkpoints in turn: how
		// many checkpoints a run leaves depends on how long it drains.
		var lat []float64
		end := e.tr.begin("snap.first_cycle_probes")
		for i := 0; i < e.sz.restoreProbes; i++ {
			p := paths[i%len(paths)]
			out.attempted++
			d, err := firstCycle(p)
			if err != nil {
				out.fail("probe %s: %v", filepath.Base(p), err)
				continue
			}
			out.cycles++
			lat = append(lat, float64(d)/float64(time.Millisecond))
		}
		end()

		for i, p := range resumeFrom {
			id := fmt.Sprintf("rl/canneal/resume-%d", 25*(i+1))
			end := e.tr.begin("core.resume")
			res, err := resumeFull(p)
			end()
			// A resume from k/4 of the way simulates the remaining (4-k)/4.
			out.addSim(id, res.ExecutionCycles*int64(3-i)/4, res, err)
			if err == nil && !sameResult(res, whole) {
				out.fail("%s: resumed result differs from the uninterrupted run", id)
			}
		}
		if len(lat) > 0 {
			out.extra = map[string]float64{
				"restore_first_cycle_ms_p50": quantile(lat, 0.50),
				"restore_first_cycle_ms_p90": quantile(lat, 0.90),
				"restore_probes":             float64(len(lat)),
				"checkpoints":                float64(len(paths)),
			}
		}
		return out
	}, nil
}

func resumeFull(path string) (rlnoc.Result, error) {
	sess, err := rlnoc.RestoreSession(path)
	if err != nil {
		return rlnoc.Result{}, err
	}
	return sess.ResumeMeasure()
}

// sameResult compares two Results through their canonical JSON, the same
// bytes the digests are computed over.
func sameResult(a, b core.Result) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(ja) == string(jb)
}
