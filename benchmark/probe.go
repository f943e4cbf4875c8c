package main

// The per-layer battery of a traced run. The workload's representative
// simulation (simSpec) is taken apart four ways: run through internal/core
// with a span per phase and a checkpoint taken mid-measure; stepped through
// internal/network by the replica; its layers' exported kernels timed in
// tight loops on inputs of its shape; and a short chaos campaign run through
// internal/campaign and again directly, to price the engine.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rlnoc"
	"rlnoc/internal/campaign"
	"rlnoc/internal/core"
	"rlnoc/internal/traffic"
)

// perLayer is every metric a traced run emits. "should move" predictions
// for each are in README.md.
var perLayer = []metricDef{
	// replica (internal/network)
	{"network.step_ns_per_router_cycle", "ns", "lower"},
	{"network.step_s", "s", "lower"},
	{"network.steps", "count", "lower"},
	{"network.ff_skipped_ratio", "ratio", "higher"},
	{"network.ff_s", "s", "lower"},
	{"network.inject_s", "s", "lower"},
	{"network.new_ms", "ms", "lower"},
	{"network.par_speedup_w2", "ratio", "higher"},
	{"core.control_s", "s", "lower"},
	{"rl.decisions", "count", "lower"},
	// phases (internal/core)
	{"core.new_sim_ms", "ms", "lower"},
	{"core.pretrain_s", "s", "lower"},
	{"core.measure_s", "s", "lower"},
	{"core.measure_kcycles_per_s", "kcycles/s", "higher"},
	{"core.resume_kcycles_per_s", "kcycles/s", "higher"},
	{"core.sim_live_mb", "MB", "lower"},
	// checkpoints (internal/snap through core)
	{"snap.write_ms_p50", "ms", "lower"},
	{"snap.bytes", "count", "lower"},
	{"snap.encode_mb_per_s", "MB/s", "higher"},
	{"snap.restore_ms_p50", "ms", "lower"},
	{"snap.decode_mb_per_s", "MB/s", "higher"},
	{"snap.restore_first_cycle_ms_p50", "ms", "lower"},
	{"snap.restore_first_cycle_ms_p90", "ms", "lower"},
	// kernels
	{"rl.new_agents_ms", "ms", "lower"},
	{"rl.decide_ns", "ns", "lower"},
	{"rl.update_ns", "ns", "lower"},
	{"dt.train_ms", "ms", "lower"},
	{"topology.build_cold_us", "us", "lower"},
	{"topology.build_memo_us", "us", "lower"},
	{"traffic.gen_s", "s", "lower"},
	{"traffic.gen_ns_per_event", "ns", "lower"},
	{"traffic.events", "count", "lower"},
	{"fault.table_hit_ns", "ns", "lower"},
	{"fault.table_miss_ns", "ns", "lower"},
	{"coding.secded_encode_ns", "ns", "lower"},
	{"coding.secded_decode_ns", "ns", "lower"},
	{"coding.crc16_flit_ns", "ns", "lower"},
	{"detrand.float64_ns", "ns", "lower"},
	{"thermal.solve_us", "us", "lower"},
	{"campaign.journal_append_us", "us", "lower"},
	// campaign engine (internal/campaign, internal/invariant)
	{"campaign.jobs_per_s", "1/s", "higher"},
	{"campaign.overhead_ratio", "ratio", "lower"},
	{"campaign.checkpoints_written", "count", "lower"},
	{"campaign.checkpoint_bytes", "count", "lower"},
	{"campaign.retries", "count", "lower"},
	{"campaign.recovered", "count", "lower"},
	{"invariant.checks_overhead_ratio", "ratio", "lower"},
	// simulated statistics of the representative sim: bit-equal across
	// simulator-speed changes
	{"stats.flits_delivered", "count", "higher"},
	{"stats.link_retx", "count", "lower"},
	{"stats.source_retx", "count", "lower"},
	{"stats.pre_retx", "count", "lower"},
	{"stats.ecc_corrections", "count", "higher"},
	{"stats.crc_failures", "count", "lower"},
	{"stats.errors_injected", "count", "lower"},
	{"stats.mean_latency_cycles", "cycles", "lower"},
	{"stats.p99_latency_cycles", "cycles", "lower"},
	{"stats.goodput_ratio", "ratio", "higher"},
	{"stats.exec_cycles", "cycles", "lower"},
	{"stats.paper_rel_err", "ratio", "lower"},
	{"stats.paper_rel_err_heldback", "ratio", "lower"},
	{"power.total_uj", "uJ", "lower"},
	{"thermal.max_c", "C", "lower"},
	// runtime
	{"proc.peak_rss_mb", "MB", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runBattery measures every per-layer metric except trace.overhead_ratio
// and the suite-only paper errors, which the caller takes from the
// workload's own repetitions.
func runBattery(w workload, e *env, scratch string) (map[string]float64, error) {
	spec, err := w.probe(e)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	end := e.tr.begin("battery")
	defer end()

	endGen := e.tr.begin("traffic.gen")
	events, err := spec.trace()
	gen := endGen()
	if err != nil {
		return nil, err
	}
	m["traffic.gen_s"] = gen.Seconds()
	m["traffic.events"] = float64(len(events))
	if len(events) > 0 {
		m["traffic.gen_ns_per_event"] = float64(gen) / float64(len(events))
	}

	dir, err := os.MkdirTemp(scratch, "battery-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	if err := probePhases(spec, events, e, dir, m); err != nil {
		return nil, fmt.Errorf("phase probe: %w", err)
	}

	rs, err := runReplica(spec, events, e.tr)
	if err != nil {
		return nil, err
	}
	m["network.steps"] = float64(rs.steps)
	m["network.step_s"] = rs.step.Seconds()
	m["network.step_ns_per_router_cycle"] = float64(rs.step) / float64(rs.steps*int64(rs.routers))
	m["network.ff_skipped_ratio"] = float64(rs.skipped) / float64(rs.cycles)
	m["network.ff_s"] = rs.ff.Seconds()
	m["network.inject_s"] = rs.inject.Seconds()
	m["core.control_s"] = rs.control.Seconds()
	m["rl.decisions"] = float64(rs.decisions)

	if err := probeParallelStep(e, m); err != nil {
		return nil, fmt.Errorf("parallel step probe: %w", err)
	}
	if err := runKernels(spec, e, dir, m); err != nil {
		return nil, fmt.Errorf("kernels: %w", err)
	}
	if err := probeCampaign(e, dir, m); err != nil {
		return nil, fmt.Errorf("campaign probe: %w", err)
	}
	m["proc.peak_rss_mb"] = peakRSSMB()
	return m, nil
}

// probePhases runs the representative sim through core with one span per
// phase. Halfway through the trace an observer checkpoints the live sim
// (the observer runs between cycles, where the snapshot policy's own
// writes happen); the checkpoint is then restored repeatedly, and finally
// resumed to the end, where it must reproduce the uninterrupted Result.
func probePhases(spec simSpec, events []traffic.Event, e *env, dir string, m map[string]float64) error {
	// Median of a few constructions; the last one is the sim that runs.
	var sim *core.Sim
	var builds []float64
	for i := 0; i < e.sz.kernelReps; i++ {
		end := e.tr.begin("core.new_sim")
		s, err := spec.newSim()
		builds = append(builds, ms(end()))
		if err != nil {
			return err
		}
		if sim != nil {
			sim.Close()
		}
		sim = s
	}
	defer func() { sim.Close() }()
	m["core.new_sim_ms"] = quantile(builds, 0.5)

	end := e.tr.begin("core.pretrain")
	err := sim.Pretrain()
	m["core.pretrain_s"] = end().Seconds()
	if err != nil {
		return err
	}

	// The checkpoint is taken when the trace is half replayed.
	snapPath := filepath.Join(dir, "probe.rlns")
	var writes []float64
	var inObserver time.Duration
	var saveErr error
	at := sim.Network().Cycle() + int64(spec.cfg.WarmupCycles) + events[len(events)-1].Cycle/2
	sim.SetObserver(500, func(s core.Snapshot) {
		if len(writes) > 0 || saveErr != nil || s.Cycle < at {
			return
		}
		t := time.Now()
		for i := 0; i < e.sz.kernelReps && saveErr == nil; i++ {
			end := e.tr.begin("snap.write")
			saveErr = sim.SaveSnapshot(snapPath)
			writes = append(writes, ms(end()))
		}
		inObserver = time.Since(t)
	})
	end = e.tr.begin("core.measure")
	res, err := sim.Measure(events, spec.label)
	measure := end() - inObserver
	if err == nil {
		err = saveErr
	}
	if err != nil {
		return err
	}
	if len(writes) == 0 {
		return fmt.Errorf("run ended at cycle %d before the checkpoint cycle %d", sim.Network().Cycle(), at)
	}
	m["core.measure_s"] = measure.Seconds()
	m["core.measure_kcycles_per_s"] = float64(res.ExecutionCycles) / 1e3 / measure.Seconds()

	st, err := os.Stat(snapPath)
	if err != nil {
		return err
	}
	sizeMB := float64(st.Size()) / (1 << 20)
	m["snap.bytes"] = float64(st.Size())
	m["snap.write_ms_p50"] = quantile(writes, 0.5)
	m["snap.encode_mb_per_s"] = sizeMB / (m["snap.write_ms_p50"] / 1e3)

	var restores []float64
	for i := 0; i < e.sz.kernelReps; i++ {
		end := e.tr.begin("snap.restore")
		s, err := core.RestoreSimFile(snapPath)
		restores = append(restores, ms(end()))
		if err != nil {
			return err
		}
		s.Close()
	}
	m["snap.restore_ms_p50"] = quantile(restores, 0.5)
	m["snap.decode_mb_per_s"] = sizeMB / (m["snap.restore_ms_p50"] / 1e3)

	var firsts []float64
	endProbes := e.tr.begin("snap.first_cycle_probes")
	for i := 0; i < e.sz.snapProbes; i++ {
		d, err := firstCycle(snapPath)
		if err != nil {
			endProbes()
			return err
		}
		firsts = append(firsts, ms(d))
	}
	endProbes()
	m["snap.restore_first_cycle_ms_p50"] = quantile(firsts, 0.5)
	m["snap.restore_first_cycle_ms_p90"] = quantile(firsts, 0.9)

	restored, err := core.RestoreSimFile(snapPath)
	if err != nil {
		return err
	}
	defer restored.Close()
	from := restored.Network().Cycle()
	end = e.tr.begin("core.resume")
	resumed, err := restored.ResumeMeasure()
	resume := end()
	if err != nil {
		return err
	}
	if !sameResult(resumed, res) {
		return fmt.Errorf("resumed result differs from the uninterrupted run")
	}
	m["core.resume_kcycles_per_s"] = float64(restored.Network().Cycle()-from) / 1e3 / resume.Seconds()

	runtime.GC()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	m["core.sim_live_mb"] = float64(ms1.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(sim)

	sum := res.Summary
	retx := float64(sum.LinkRetransmissions + sum.PreRetransmissions + sum.SourceRetransmissions*int64(spec.cfg.FlitsPerPacket))
	m["stats.flits_delivered"] = float64(res.FlitsDelivered)
	m["stats.link_retx"] = float64(sum.LinkRetransmissions)
	m["stats.source_retx"] = float64(sum.SourceRetransmissions)
	m["stats.pre_retx"] = float64(sum.PreRetransmissions)
	m["stats.ecc_corrections"] = float64(sum.ECCCorrections)
	m["stats.crc_failures"] = float64(sum.CRCFailures)
	m["stats.errors_injected"] = float64(sum.ErrorsInjected)
	m["stats.mean_latency_cycles"] = res.MeanLatency
	m["stats.p99_latency_cycles"] = float64(sum.P99Latency)
	m["stats.goodput_ratio"] = float64(res.FlitsDelivered) / (float64(res.FlitsDelivered) + retx)
	m["stats.exec_cycles"] = float64(res.ExecutionCycles)
	m["power.total_uj"] = res.TotalPJ / 1e6
	m["thermal.max_c"] = res.MaxTempC
	return nil
}

// probeParallelStep compares Step with two workers against one on a loaded
// fabric of the scale's parallel size: the input to ROADMAP item 1's
// keep-or-delete rule for the sharded Step.
func probeParallelStep(e *env, m map[string]float64) error {
	cfg := e.baseConfig()
	cfg.Width, cfg.Height = e.sz.parFabric, e.sz.parFabric
	cfg.PretrainCycles = 0
	events, err := rlnoc.SyntheticTrace(cfg, "uniform", 0.025, e.sz.parCycles, e.seed*31+11)
	if err != nil {
		return err
	}
	end := e.tr.begin("network.par_probe")
	defer end()
	w1, err := steppedWall(cfg, events, e.sz.parCycles, 1)
	if err != nil {
		return err
	}
	w2, err := steppedWall(cfg, events, e.sz.parCycles, 2)
	if err != nil {
		return err
	}
	m["network.par_speedup_w2"] = w1.Seconds() / w2.Seconds()
	return nil
}

// probeCampaign runs a short chaos campaign through the engine and the same
// specs directly through core without checkpoints, and one spec with the
// invariant layer on and off.
func probeCampaign(e *env, dir string, m map[string]float64) error {
	plan, err := campaign.BuildChaos(chaosBase(e), e.sz.probeCampaignRuns, e.sz.chaosSnapEvery, campaign.InjectSpec{})
	if err != nil {
		return err
	}
	eng, err := openCampaign(e, filepath.Join(dir, "campaign"), plan.Specs)
	if err != nil {
		return err
	}
	run, err := runCampaign(e, eng)
	if err != nil {
		return err
	}
	var out outcome
	out.addJobs(run.results)
	if len(out.failures) > 0 {
		return fmt.Errorf("%s", out.failures[0])
	}

	end := e.tr.begin("campaign.direct")
	var direct time.Duration
	for _, s := range plan.Specs {
		d, err := runSpecDirect(s)
		if err != nil {
			end()
			return err
		}
		direct += d
	}
	end()

	m["campaign.jobs_per_s"] = float64(len(run.results)) / run.wall.Seconds()
	m["campaign.overhead_ratio"] = run.wall.Seconds() * float64(e.workers) / direct.Seconds()
	m["campaign.checkpoints_written"] = float64(run.checkpoints)
	m["campaign.checkpoint_bytes"] = float64(run.bytes)
	m["campaign.retries"] = float64(run.retries)
	m["campaign.recovered"] = float64(run.recovered)

	// The invariant layer's price: the first spec with checks on and off,
	// interleaved, median of each.
	on, off := plan.Specs[0], plan.Specs[0]
	off.Config.Checks = "off"
	var tOn, tOff []float64
	end = e.tr.begin("invariant.paired")
	defer end()
	for i := 0; i < e.sz.kernelReps; i++ {
		d, err := runSpecDirect(on)
		if err != nil {
			return err
		}
		tOn = append(tOn, d.Seconds())
		if d, err = runSpecDirect(off); err != nil {
			return err
		}
		tOff = append(tOff, d.Seconds())
	}
	m["invariant.checks_overhead_ratio"] = quantile(tOn, 0.5) / quantile(tOff, 0.5)
	return nil
}

// runSpecDirect runs one campaign spec through core with no engine and no
// checkpoints, returning the wall time of construction plus measurement.
func runSpecDirect(s campaign.Spec) (time.Duration, error) {
	events, err := s.Trace.Events(s.Config)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	sim, err := core.NewSim(s.Config, core.Scheme(s.Scheme))
	if err != nil {
		return 0, err
	}
	defer sim.Close()
	res, merr := sim.Measure(events, s.Label)
	// A run the invariant watchdog ended is a classification, not a fault.
	if _, _, err := campaign.Classify(res, merr, sim.Network()); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}
