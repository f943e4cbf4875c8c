// Command nocsim runs one simulation: a PARSEC-like benchmark (or a trace
// file, or a synthetic pattern) under one fault-tolerant scheme, printing
// the headline metrics.
//
// Examples:
//
//	nocsim -scheme rl -benchmark canneal
//	nocsim -scheme crc -pattern uniform -rate 0.005
//	nocsim -scheme arq-ecc -trace trace.txt -config cfg.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"rlnoc/internal/config"
	"rlnoc/internal/core"
	"rlnoc/internal/eventlog"
	"rlnoc/internal/invariant"
	"rlnoc/internal/network"
	"rlnoc/internal/stats"
	"rlnoc/internal/topology"
	"rlnoc/internal/traffic"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nocsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nocsim", flag.ContinueOnError)
	var (
		schemeFlag = fs.String("scheme", "rl", "fault-tolerant scheme: crc|arq-ecc|dt|rl|qroute")
		benchFlag  = fs.String("benchmark", "", "PARSEC-like benchmark name (see cmd/trafficgen -list)")
		traceFlag  = fs.String("trace", "", "trace file to run (overrides -benchmark)")
		pattern    = fs.String("pattern", "", "synthetic pattern (uniform|transpose|...) instead of a benchmark")
		rate       = fs.Float64("rate", 0.004, "synthetic injection rate, packets/node/cycle")
		cfgPath    = fs.String("config", "", "JSON config file (default: paper Table II)")
		seed       = fs.Int64("seed", 0, "override random seed (0 = keep config seed)")
		errRate    = fs.Float64("error-rate", -1, "override base timing-error rate (-1 = keep config)")
		routing    = fs.String("routing", "", "routing algorithm: xy|yx|westfirst (default: config)")
		hardFault  = fs.String("hard-faults", "", "permanent-failure schedule, e.g. 5000:l12.east,8000:r3")
		checksFlag = fs.String("checks", "", "runtime invariant checks: off|all|ledger,credits,watchdog (default: RLNOC_CHECKS env)")
		topoFlag   = fs.String("topology", "", "fabric topology: mesh|torus (default: config)")
		small      = fs.Bool("small", false, "use the 4x4 quick configuration")
		stepW      = fs.Int("step-workers", 0, "per-Step shard workers, deterministic (0 = config/env, 1 = sequential)")
		verbose    = fs.Bool("v", false, "print the error-control breakdown")
		policy     = fs.Int("policy", 0, "print the N most-visited RL states with their Q-rows")
		savePolicy = fs.String("save-policy", "", "write the trained RL Q-tables to a file after the run")
		loadPolicy = fs.String("load-policy", "", "preload RL Q-tables (skips pre-training)")
		eventLog   = fs.String("eventlog", "", "record flit/packet events of the testing phase to a file")
		analyze    = fs.String("analyze", "", "analyze a recorded event log and exit")
		qAlpha     = fs.Float64("qroute-alpha", 0, "override the qroute learning rate (0 = keep config)")
		qEpsilon   = fs.Float64("qroute-epsilon", -1, "override the qroute exploration epsilon (-1 = keep config)")
		snapEvery  = fs.Int64("snapshot-every", 0, "write a checkpoint every N cycles of the measured phase (0 = off)")
		snapDir    = fs.String("snapshot-dir", "", "checkpoint directory (default: RLNOC_SNAPSHOT_DIR env, else 'snapshots')")
		restore    = fs.String("restore", "", "resume from a checkpoint file and finish the run (ignores workload flags)")
		fastFwd    = fs.Bool("fast-forward", true, "jump quiescent idle spans to the next event (bit-identical; false steps every cycle)")
		progress   = fs.Duration("progress", 0, "print progress to stderr at this wall-clock interval, e.g. 5s (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *restore != "" {
		return runRestore(*restore, *stepW, *verbose, *progress)
	}

	if *analyze != "" {
		f, err := os.Open(*analyze)
		if err != nil {
			return err
		}
		defer f.Close()
		events, err := eventlog.Read(f)
		if err != nil {
			return err
		}
		fmt.Print(eventlog.Analyze(events).Format())
		return nil
	}

	cfg := config.Default()
	if *small {
		cfg = config.Small()
	}
	if *cfgPath != "" {
		var err error
		if cfg, err = config.Load(*cfgPath); err != nil {
			return err
		}
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *errRate >= 0 {
		cfg.Fault.BaseErrorRate = *errRate
	}
	if *routing != "" {
		cfg.Routing = config.Routing(*routing)
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	if *topoFlag != "" {
		cfg.Topology = *topoFlag
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	if *stepW != 0 {
		cfg.StepWorkers = *stepW
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	if *hardFault != "" {
		cfg.HardFaults = *hardFault
	}
	if *checksFlag != "" {
		cfg.Checks = *checksFlag
	}
	if *qAlpha != 0 {
		cfg.QRoute.Alpha = *qAlpha
	}
	if *qEpsilon >= 0 {
		cfg.QRoute.Epsilon = *qEpsilon
	}
	if *hardFault != "" || *checksFlag != "" {
		if err := cfg.Validate(); err != nil {
			return err
		}
	}
	cfg.NoFastForward = !*fastFwd
	scheme, err := core.ParseScheme(*schemeFlag)
	if err != nil {
		return err
	}

	var events []traffic.Event
	label := ""
	switch {
	case *traceFlag != "":
		f, err := os.Open(*traceFlag)
		if err != nil {
			return err
		}
		events, err = traffic.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		label = *traceFlag
	case *pattern != "":
		topo, err := topology.FromConfig(cfg)
		if err != nil {
			return err
		}
		events, err = traffic.Synthetic(topo, traffic.Pattern(*pattern), *rate,
			cfg.FlitsPerPacket, int64(cfg.MaxCycles), cfg.Seed+7)
		if err != nil {
			return err
		}
		label = *pattern
	default:
		bench := *benchFlag
		if bench == "" {
			bench = "canneal"
		}
		if events, err = core.BenchmarkTrace(cfg, bench); err != nil {
			return err
		}
		label = bench
	}

	sim, err := core.NewSim(cfg, scheme)
	if err != nil {
		return err
	}
	if *progress > 0 {
		attachProgress(sim, *progress)
	}
	if *loadPolicy != "" {
		rlc, ok := sim.Controller().(*core.RLController)
		if !ok {
			return fmt.Errorf("-load-policy requires -scheme rl")
		}
		f, err := os.Open(*loadPolicy)
		if err != nil {
			return err
		}
		err = rlc.LoadPolicy(f)
		f.Close()
		if err != nil {
			return err
		}
	} else if err := sim.Pretrain(); err != nil {
		return err
	}
	if *eventLog != "" {
		f, err := os.Create(*eventLog)
		if err != nil {
			return err
		}
		defer f.Close()
		l := eventlog.New(f)
		sim.Network().SetEventLog(l)
		defer l.Flush()
	}
	if *snapEvery > 0 {
		dir, _ := config.ResolveString(config.EnvSnapshotDir, *snapDir, "snapshots")
		sim.SetSnapshotPolicy(dir, *snapEvery)
	}
	res, err := sim.Measure(events, label)
	if err != nil {
		var iv *invariant.Error
		if errors.As(err, &iv) {
			fmt.Fprint(os.Stderr, iv.Report())
			if msg := sim.Bisect(); msg != "" {
				fmt.Fprintln(os.Stderr, msg)
			}
		}
		return err
	}

	printResult(res, *verbose)
	if net := sim.Network(); net.QRouteEnabled() {
		fmt.Printf("qroute telemetry  %s\n", net.QRouteTelemetry().Format())
	}
	if cfg.HardFaults != "" {
		printFaultReport(sim.Network())
	}
	if *policy > 0 {
		if rlc, ok := sim.Controller().(*core.RLController); ok {
			fmt.Print(rlc.PolicyDump(*policy))
		}
	}
	if *savePolicy != "" {
		rlc, ok := sim.Controller().(*core.RLController)
		if !ok {
			return fmt.Errorf("-save-policy requires -scheme rl")
		}
		f, err := os.Create(*savePolicy)
		if err != nil {
			return err
		}
		if err := rlc.SavePolicy(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "saved RL policy to %s\n", *savePolicy)
	}
	return nil
}

// attachProgress wires a stderr progress reporter onto the simulation's
// cycle loop. The reported cycle is the simulated-cycle counter —
// fast-forwarded spans count like stepped ones — so the derived
// cycles/s figure stays meaningful whichever path the loop takes.
func attachProgress(sim *core.Sim, every time.Duration) {
	start := time.Now()
	lastT, lastC := start, sim.Network().Cycle()
	sim.SetProgress(every, func(cycle int64) {
		now := time.Now()
		rate := float64(cycle-lastC) / now.Sub(lastT).Seconds()
		fmt.Fprintf(os.Stderr, "progress: cycle %d (%.1fs elapsed, %.3g cycles/s)\n",
			cycle, now.Sub(start).Seconds(), rate)
		lastT, lastC = now, cycle
	})
}

// runRestore resumes a checkpoint written by -snapshot-every: the file
// carries config, scheme, trace and complete state, so only host-local
// knobs (-step-workers — bit-identical by construction) still apply.
func runRestore(path string, stepW int, verbose bool, progress time.Duration) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	sim, err := core.RestoreSimTuned(f, func(cfg *config.Config) {
		if stepW != 0 {
			cfg.StepWorkers = stepW
		}
	})
	f.Close()
	if err != nil {
		return err
	}
	defer sim.Close()
	if progress > 0 {
		attachProgress(sim, progress)
	}
	fmt.Fprintf(os.Stderr, "resumed %s at cycle %d\n", path, sim.Network().Cycle())
	res, err := sim.ResumeMeasure()
	if err != nil {
		var iv *invariant.Error
		if errors.As(err, &iv) {
			fmt.Fprint(os.Stderr, iv.Report())
		}
		return err
	}
	printResult(res, verbose)
	if net := sim.Network(); net.QRouteEnabled() {
		fmt.Printf("qroute telemetry  %s\n", net.QRouteTelemetry().Format())
	}
	if sim.Network().DeadRouters() > 0 || sim.Network().UnreachablePairs() > 0 {
		printFaultReport(sim.Network())
	}
	return nil
}

// printFaultReport summarizes the damage after a hard-faulted run: what
// died, what became unreachable, where discarded flits went, and the
// packet-conservation ledger that proves nothing was lost untallied.
func printFaultReport(net *network.Network) {
	fmt.Printf("dead routers      %d\n", net.DeadRouters())
	fmt.Printf("unreachable pairs %d\n", net.UnreachablePairs())
	counts := net.Stats().DropCounts()
	fmt.Printf("drops            ")
	for r := stats.DropReason(0); r < stats.NumDropReasons; r++ {
		fmt.Printf(" %s=%d", r, counts[r])
	}
	fmt.Println()
	fmt.Printf("ledger            %s\n", net.ConservationLedger())
	fmt.Printf("time-to-recover   %s\n", net.RecoveryLog().Format())
}

func printResult(r core.Result, verbose bool) {
	fmt.Printf("scheme            %s\n", r.Scheme)
	fmt.Printf("workload          %s\n", r.Benchmark)
	fmt.Printf("drained           %v\n", r.Drained)
	fmt.Printf("execution         %d cycles\n", r.ExecutionCycles)
	fmt.Printf("mean E2E latency  %.2f cycles\n", r.MeanLatency)
	fmt.Printf("latency p50/p95/p99/max  %d/%d/%d/%d cycles\n",
		r.Summary.P50Latency, r.Summary.P95Latency, r.Summary.P99Latency, r.Summary.MaxLatency)
	fmt.Printf("flits delivered   %d\n", r.FlitsDelivered)
	fmt.Printf("retransmit (pkt)  %.1f\n", r.RetransmittedPacketEq)
	fmt.Printf("dynamic power     %.4f W\n", r.DynamicPowerW)
	fmt.Printf("energy            %.1f nJ (dynamic %.1f, static %.1f)\n",
		r.TotalPJ/1e3, r.DynamicPJ/1e3, r.StaticPJ/1e3)
	fmt.Printf("energy efficiency %.2f flits/uJ\n", r.EnergyEfficiency)
	fmt.Printf("temperature       mean %.1f C, max %.1f C\n", r.MeanTempC, r.MaxTempC)
	if verbose {
		s := r.Summary
		fmt.Printf("errors injected   %d\n", s.ErrorsInjected)
		fmt.Printf("ecc corrected     %d\n", s.ECCCorrections)
		fmt.Printf("ecc detected      %d\n", s.ECCDetections)
		fmt.Printf("crc failures      %d\n", s.CRCFailures)
		fmt.Printf("source retx       %d\n", s.SourceRetransmissions)
		fmt.Printf("link retx         %d\n", s.LinkRetransmissions)
		fmt.Printf("pre-retx          %d\n", s.PreRetransmissions)
		fmt.Printf("packets           %d injected, %d delivered\n", s.PacketsInjected, s.PacketsDelivered)
		fmt.Printf("mode decisions    %v\n", r.ModeDecisions)
		fmt.Printf("mode mean reward  %.2f %.2f %.2f %.2f\n",
			r.ModeMeanReward[0], r.ModeMeanReward[1], r.ModeMeanReward[2], r.ModeMeanReward[3])
	}
}
