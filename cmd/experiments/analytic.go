package main

import (
	"fmt"
	"math"

	"rlnoc"
	"rlnoc/internal/analytic"
	"rlnoc/internal/dt"
	"rlnoc/internal/power"
)

// printAnalytic renders the closed-form per-mode cost model across error
// probabilities, plus the crossover thresholds next to the mode bounds
// the DT baseline runs — the analytic companion to the static-modes
// ablation.
func printAnalytic(cfg rlnoc.Config) {
	pr := power.DefaultParams().Scaled(cfg.VoltageV)
	flits := cfg.FlitsPerPacket
	hops := (cfg.Width + cfg.Height) / 2 // mean-ish path length

	fmt.Printf("closed-form cost model: packets of %d flits over %d hops\n", flits, hops)
	fmt.Printf("%-10s %10s %10s %10s %10s   %s\n",
		"error p", "mode0", "mode1", "mode2", "mode3", "best (latency x energy)")
	for exp := -5.0; exp <= -0.3; exp += 0.5 {
		p := math.Pow(10, exp)
		fmt.Printf("%-10.2g", p)
		for m := 0; m < 4; m++ {
			fmt.Printf(" %10.2f", analytic.EvaluateMode(m, p, flits, hops, pr).Score())
		}
		fmt.Printf("   mode%d\n", analytic.BestMode(p, flits, hops, pr))
	}
	th := analytic.CrossoverThresholds(flits, hops, pr)
	fmt.Printf("crossover thresholds: %v\n", th)
	fmt.Printf("DT mode bounds:       %v\n", dt.ModeBounds)
}
