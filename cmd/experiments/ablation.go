package main

import (
	"fmt"
	"slices"
	"strings"

	"rlnoc"
	"rlnoc/internal/core"
	"rlnoc/internal/network"
)

// study is one of the design-choice studies listed in DESIGN.md: a table
// title (formatted with the benchmark) and its arms, each a labelled
// (Config, Scheme) pair.
type study struct {
	title string
	arms  []rlnoc.Arm
}

// studies builds every ablation's arm table from cfg.
func studies(cfg rlnoc.Config) map[string]study {
	arm := func(label string, scheme rlnoc.Scheme, tune func(*rlnoc.Config)) rlnoc.Arm {
		c := cfg
		tune(&c)
		return rlnoc.Arm{Label: label, Config: c, Scheme: scheme}
	}
	rl := func(label string, tune func(*rlnoc.Config)) rlnoc.Arm { return arm(label, rlnoc.RL, tune) }
	asIs := func(*rlnoc.Config) {}
	mask := func(m uint8) func(*rlnoc.Config) { return func(c *rlnoc.Config) { c.RL.ModeMask = m } }

	var epochs, statics []rlnoc.Arm
	for _, step := range []int{250, 500, 1000, 2000, 4000} {
		// The thermal period moves with the step (EXPERIMENTS.md says why
		// that confounds the study), so each label names both.
		epochs = append(epochs, rl(fmt.Sprintf("step %d, thermal %d", step, step/2), func(c *rlnoc.Config) {
			c.RL.StepCycles = step
			c.Thermal.UpdatePeriod = step / 2
		}))
	}
	for m := network.Mode0; m < network.NumModes; m++ {
		statics = append(statics, arm(m.String(), core.StaticScheme(m), asIs))
	}
	return map[string]study{
		"rl-params": {"RL hyper-parameter ablation on %s", []rlnoc.Arm{
			rl("baseline (g0.5 e0.2/0.02)", asIs),
			rl("gamma=0 (bandit)", func(c *rlnoc.Config) { c.RL.Gamma = 0 }),
			rl("gamma=0.9", func(c *rlnoc.Config) { c.RL.Gamma = 0.9 }),
			rl("epsilon=0.05", func(c *rlnoc.Config) { c.RL.Epsilon = 0.05 }),
			rl("test-epsilon=0.1 (paper)", func(c *rlnoc.Config) { c.RL.TestEpsilon = 0.1 }),
		}},
		"modes": {"operation-mode subset ablation on %s", []rlnoc.Arm{
			rl("modes {0,1}", mask(0b0011)),
			rl("modes {0,1,2}", mask(0b0111)),
			rl("modes {0,1,3}", mask(0b1011)),
			rl("all four modes", asIs),
		}},
		"epoch": {"RL time-step (epoch) ablation on %s", epochs},
		"table-sharing": {"Q-table sharing ablation on %s", []rlnoc.Arm{
			rl("shared table (64x samples)", func(c *rlnoc.Config) { c.RL.SharedTable = true }),
			rl("per-router tables (paper)", func(c *rlnoc.Config) { c.RL.SharedTable = false }),
		}},
		"static-modes": {"static single-mode sweep on %s (no mode dominates everywhere)", statics},
	}
}

// studyNames lists the studies' names, sorted.
func studyNames() []string {
	var names []string
	for name := range studies(rlnoc.DefaultConfig()) {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// runAblation runs one study's arms as one RunArms plan in dir — each arm
// pre-trains once and every benchmark measures from that state — and
// prints one table per benchmark (canneal when none is named).
func runAblation(cfg rlnoc.Config, name string, benchmarks []string, dir string) error {
	s, ok := studies(cfg)[name]
	if !ok {
		return fmt.Errorf("unknown ablation %q (want %s)", name, strings.Join(studyNames(), "|"))
	}
	if len(benchmarks) == 0 {
		benchmarks = []string{"canneal"}
	}
	results, err := rlnoc.RunArms(s.arms, benchmarks, dir)
	if err != nil {
		return err
	}
	for b, bench := range benchmarks {
		if b > 0 {
			fmt.Println()
		}
		fmt.Printf(s.title+"\n", bench)
		fmt.Println(tableHeader)
		for i, arm := range s.arms {
			fmt.Println(row(arm.Label, results[i][b]))
		}
	}
	return nil
}

var tableHeader = fmt.Sprintf("%-28s %12s %12s %14s %14s", "variant", "latency", "exec cycles", "retx (pkts)", "flits/uJ")

// row renders one arm's result under tableHeader.
func row(label string, r rlnoc.Result) string {
	return fmt.Sprintf("%-28s %12.2f %12d %14.1f %14.1f",
		label, r.MeanLatency, r.ExecutionCycles, r.RetransmittedPacketEq, r.EnergyEfficiency)
}
