package main

import (
	"fmt"

	"rlnoc"
	"rlnoc/internal/core"
	"rlnoc/internal/network"
)

// runAblation executes one of the design-choice studies listed in
// DESIGN.md. Each prints a small table on one reference benchmark.
func runAblation(cfg rlnoc.Config, name string, benchmarks []string) error {
	bench := "canneal"
	if len(benchmarks) > 0 {
		bench = benchmarks[0]
	}
	switch name {
	case "rl-params":
		return ablateRLParams(cfg, bench)
	case "modes":
		return ablateModeSubsets(cfg, bench)
	case "epoch":
		return ablateEpoch(cfg, bench)
	case "table-sharing":
		return ablateSharing(cfg, bench)
	case "static-modes":
		return ablateStaticModes(cfg, bench)
	case "granularity":
		return ablateGranularity(cfg, bench)
	default:
		return fmt.Errorf("unknown ablation %q (want rl-params|modes|epoch|table-sharing|static-modes|granularity)", name)
	}
}

func printHeader(title string) {
	fmt.Println(title)
	fmt.Printf("%-28s %12s %12s %14s %14s\n", "variant", "latency", "exec cycles", "retx (pkts)", "flits/uJ")
}

func printRow(name string, r rlnoc.Result) {
	fmt.Printf("%-28s %12.2f %12d %14.1f %14.1f\n",
		name, r.MeanLatency, r.ExecutionCycles, r.RetransmittedPacketEq, r.EnergyEfficiency)
}

func ablateRLParams(cfg rlnoc.Config, bench string) error {
	printHeader("RL hyper-parameter ablation on " + bench)
	type variant struct {
		name string
		mut  func(*rlnoc.Config)
	}
	variants := []variant{
		{"baseline (a0.1 g0.5 e0.1)", func(c *rlnoc.Config) {}},
		{"gamma=0 (bandit)", func(c *rlnoc.Config) { c.RL.Gamma = 0 }},
		{"gamma=0.9", func(c *rlnoc.Config) { c.RL.Gamma = 0.9 }},
		{"alpha=0.3", func(c *rlnoc.Config) { c.RL.Alpha = 0.3 }},
		{"no alpha decay", func(c *rlnoc.Config) { c.RL.AlphaDecay = false }},
		{"epsilon=0.05", func(c *rlnoc.Config) { c.RL.Epsilon = 0.05 }},
		{"test-epsilon=0.1 (paper)", func(c *rlnoc.Config) { c.RL.TestEpsilon = 0.1 }},
		{"double Q-learning", func(c *rlnoc.Config) { c.RL.DoubleQ = true }},
	}
	for _, v := range variants {
		c := cfg
		v.mut(&c)
		res, err := rlnoc.Run(c, rlnoc.RL, bench)
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		printRow(v.name, res)
	}
	return nil
}

func ablateModeSubsets(cfg rlnoc.Config, bench string) error {
	printHeader("operation-mode subset ablation on " + bench)
	masks := []struct {
		name string
		mask uint8
	}{
		{"modes {0,1}", 0b0011},
		{"modes {0,1,2}", 0b0111},
		{"modes {0,1,3}", 0b1011},
		{"all four modes", 0},
	}
	for _, m := range masks {
		sim, err := core.NewSim(cfg, core.SchemeRL)
		if err != nil {
			return err
		}
		sim.Controller().(*core.RLController).ModeMask = m.mask
		res, err := sim.RunBenchmark(bench)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		printRow(m.name, res)
	}
	return nil
}

func ablateEpoch(cfg rlnoc.Config, bench string) error {
	printHeader("RL time-step (epoch) ablation on " + bench)
	for _, step := range []int{250, 500, 1000, 2000, 4000} {
		c := cfg
		c.RL.StepCycles = step
		// Keep leakage accrual uniform per epoch.
		c.Thermal.UpdatePeriod = step / 2
		if c.Thermal.UpdatePeriod < 1 {
			c.Thermal.UpdatePeriod = step
		}
		res, err := rlnoc.Run(c, rlnoc.RL, bench)
		if err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		printRow(fmt.Sprintf("step = %d cycles", step), res)
	}
	return nil
}

func ablateSharing(cfg rlnoc.Config, bench string) error {
	printHeader("Q-table sharing ablation on " + bench)
	for _, shared := range []bool{true, false} {
		c := cfg
		c.RL.SharedTable = shared
		name := "shared table (64x samples)"
		if !shared {
			name = "per-router tables (paper)"
		}
		res, err := rlnoc.Run(c, rlnoc.RL, bench)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printRow(name, res)
	}
	return nil
}

func ablateStaticModes(cfg rlnoc.Config, bench string) error {
	printHeader("static single-mode sweep on " + bench + " (no mode dominates everywhere)")
	for m := network.Mode0; m < network.NumModes; m++ {
		sim, err := core.NewStaticSim(cfg, m)
		if err != nil {
			return err
		}
		res, err := sim.RunBenchmark(bench)
		if err != nil {
			return fmt.Errorf("%v: %w", m, err)
		}
		printRow(m.String(), res)
	}
	return nil
}

func ablateGranularity(cfg rlnoc.Config, bench string) error {
	printHeader("control granularity ablation on " + bench)
	perRouter, err := rlnoc.Run(cfg, rlnoc.RL, bench)
	if err != nil {
		return err
	}
	printRow("per-router agents (paper)", perRouter)
	sim, err := core.NewRLPortSim(cfg)
	if err != nil {
		return err
	}
	perPort, err := sim.RunBenchmark(bench)
	if err != nil {
		return err
	}
	printRow("per-port agents (4x finer)", perPort)
	return nil
}
