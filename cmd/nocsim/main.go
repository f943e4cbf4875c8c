// Command nocsim runs one simulation: a PARSEC-like benchmark (or a trace
// file, or a synthetic pattern) under one fault-tolerant scheme, printing
// the headline metrics.
//
// A run can also start from a snapshot file (-restore): a checkpoint
// written by -snapshot-every finishes its run, and a pre-trained state
// (-save-pretrained, or a campaign's pretrain-*.rlns) measures the
// workload flags' trace — printing exactly what the uninterrupted run
// prints.
//
// Examples:
//
//	nocsim -scheme rl -benchmark canneal
//	nocsim -scheme crc -pattern uniform -rate 0.005
//	nocsim -scheme arq-ecc -trace trace.txt -config cfg.json
//	nocsim -small -scheme dt -save-pretrained dt.rlns
//	nocsim -restore dt.rlns -benchmark dedup
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
		schemeFlag = fs.String("scheme", "rl", "fault-tolerant scheme: crc|arq-ecc|dt|rl|qroute, or an ablation arm (rl-per-port, static-mode0-bypass .. static-mode3-relax)")
		benchFlag  = fs.String("benchmark", "", "PARSEC-like benchmark name (see cmd/trafficgen -list)")
		traceFlag  = fs.String("trace", "", "trace file to run (overrides -benchmark)")
		pattern    = fs.String("pattern", "", "synthetic pattern (uniform|transpose|...) instead of a benchmark")
		rate       = fs.Float64("rate", 0.004, "synthetic injection rate, packets/node/cycle")
		cfgPath    = fs.String("config", "", "JSON config file (default: paper Table II)")
		seed       = fs.Int64("seed", 0, "override random seed (0 = keep config seed)")
		errRate    = fs.Float64("error-rate", -1, "override base timing-error rate, the rate at t_ref_c and zero utilisation only (-1 = keep config); a fault-free run also needs temp_sensitivity and util_sensitivity at 0 in -config")
		routing    = fs.String("routing", "", "routing algorithm: xy|yx|westfirst (default: config)")
		hardFault  = fs.String("hard-faults", "", "permanent-failure schedule, e.g. 5000:l12.east,8000:r3")
		checksFlag = fs.String("checks", "", "runtime invariant checks: off|all|ledger,credits,watchdog (default: RLNOC_CHECKS env)")
		topoFlag   = fs.String("topology", "", "fabric topology: mesh|torus (default: config)")
		small      = fs.Bool("small", false, "use the 4x4 quick configuration")
		verbose    = fs.Bool("v", false, "print the error-control breakdown")
		policy     = fs.Int("policy", 0, "print the N most-visited RL states with their Q-rows")
		savePre    = fs.String("save-pretrained", "", "write the state at the end of pre-training to a file (any scheme; measure from it with -restore)")
		eventLog   = fs.String("eventlog", "", "record flit/packet events of the testing phase to a file")
		analyze    = fs.String("analyze", "", "analyze a recorded event log and exit")
		qAlpha     = fs.Float64("qroute-alpha", 0, "override the qroute learning rate (0 = keep config)")
		qEpsilon   = fs.Float64("qroute-epsilon", -1, "override the qroute exploration epsilon (-1 = keep config)")
		snapEvery  = fs.Int64("snapshot-every", 0, "write a checkpoint every N cycles of the measured phase (0 = off)")
		snapDir    = fs.String("snapshot-dir", "", "checkpoint directory (default: RLNOC_SNAPSHOT_DIR env, else 'snapshots')")
		restore    = fs.String("restore", "", "start from a snapshot file, which carries config and scheme: a checkpoint finishes its run, a pre-trained state measures the workload flags' trace")
		progress   = fs.Duration("progress", 0, "print progress to stderr at this wall-clock interval, e.g. 5s (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
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

	var sim *core.Sim
	if *restore != "" {
		var err error
		if sim, err = restoreSim(fs, *restore); err != nil {
			return err
		}
	} else {
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
		}
		if *topoFlag != "" {
			cfg.Topology = *topoFlag
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
		if err := cfg.Validate(); err != nil {
			return err
		}
		scheme, err := core.ParseScheme(*schemeFlag)
		if err != nil {
			return err
		}
		if sim, err = core.NewSim(cfg, scheme); err != nil {
			return err
		}
	}
	cfg := sim.Config()

	// A checkpoint carries its trace; a fresh or pre-trained sim measures
	// the one the workload flags name.
	var events []traffic.Event
	label := ""
	if !sim.HasMeasure() {
		var err error
		if events, label, err = workload(cfg, *traceFlag, *pattern, *rate, *benchFlag); err != nil {
			return err
		}
	}
	if *progress > 0 {
		attachProgress(sim, *progress)
	}
	if *restore == "" {
		if err := sim.Pretrain(); err != nil {
			return err
		}
		if *savePre != "" {
			if err := sim.SaveSnapshot(*savePre); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "saved pre-trained state to %s\n", *savePre)
		}
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
		dir := config.ResolveString(config.EnvSnapshotDir, *snapDir, "snapshots")
		sim.SetSnapshotPolicy(dir, *snapEvery)
	}
	var res core.Result
	var err error
	if sim.HasMeasure() {
		res, err = sim.ResumeMeasure()
	} else {
		res, err = sim.Measure(events, label)
	}
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
	return nil
}

// freshOnly are the flags that describe the sim a fresh run builds; a
// snapshot carries its own config and scheme, so alongside -restore they
// are errors rather than silently ignored.
var freshOnly = map[string]bool{
	"scheme": true, "config": true, "small": true, "seed": true, "error-rate": true,
	"routing": true, "hard-faults": true, "checks": true, "topology": true,
	"qroute-alpha": true, "qroute-epsilon": true, "save-pretrained": true,
}

// workloadFlags name the trace a run measures; a checkpoint taken
// mid-measurement carries its own.
var workloadFlags = map[string]bool{"benchmark": true, "trace": true, "pattern": true, "rate": true}

// restoreSim rebuilds the sim a snapshot file holds — a checkpoint written
// by -snapshot-every, a -save-pretrained state or a campaign's
// pretrain-*.rlns — after checking that no flag set on the command line
// contradicts it.
func restoreSim(fs *flag.FlagSet, path string) (*core.Sim, error) {
	sim, err := core.RestoreSimFile(path)
	if err != nil {
		return nil, err
	}
	fs.Visit(func(fl *flag.Flag) {
		switch {
		case err != nil:
		case freshOnly[fl.Name]:
			err = fmt.Errorf("-%s cannot be used with -restore: the snapshot carries its config and scheme", fl.Name)
		case workloadFlags[fl.Name] && sim.HasMeasure():
			err = fmt.Errorf("-%s cannot be used with -restore of a checkpoint taken mid-measurement: it carries its trace", fl.Name)
		}
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "resumed %s at cycle %d\n", path, sim.Network().Cycle())
	return sim, nil
}

// workload builds the trace the workload flags name (a trace file, a
// synthetic pattern, or a PARSEC-like benchmark, canneal by default) for
// the fabric and seed of cfg.
func workload(cfg config.Config, tracePath, pattern string, rate float64, bench string) ([]traffic.Event, string, error) {
	switch {
	case tracePath != "":
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		events, err := traffic.ReadTrace(f)
		return events, tracePath, err
	case pattern != "":
		topo, err := topology.FromConfig(cfg)
		if err != nil {
			return nil, "", err
		}
		events, err := traffic.Synthetic(topo, traffic.Pattern(pattern), rate,
			cfg.FlitsPerPacket, int64(cfg.MaxCycles), cfg.Seed+7)
		return events, pattern, err
	default:
		if bench == "" {
			bench = "canneal"
		}
		events, err := core.BenchmarkTrace(cfg, bench)
		return events, bench, err
	}
}

// attachProgress wires a stderr progress reporter onto the simulation's
// cycle loop, reporting the simulated-cycle counter and the cycles/s
// since the previous report.
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
