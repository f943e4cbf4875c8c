package main

import (
	"fmt"

	"rlnoc"
	"rlnoc/internal/campaign"
)

// printChaos renders a chaos battery: each randomized kill schedule (both
// topologies, every invariant check armed) head-to-head across its arms —
// rl, whose recovery is the table reroute (a BFS over the surviving
// fabric), against qroute (per-router learned next-hop selection over the
// same fabric) — then a per-arm tally of outcomes. Schedules derive from
// (seed, run) through detrand, so a failing run replays exactly with -seed
// and the printed schedule.
func printChaos(plan *campaign.ChaosPlan, byID map[string]campaign.JobResult) {
	counts := map[string]int{}
	for _, run := range plan.Runs {
		fmt.Printf("chaos run %2d  %-5s kills=%d [%s]\n", run.Index, run.Topology, run.Kills, run.Schedule)
		for _, scheme := range plan.Arms {
			r := byID[campaign.ChaosJobID(run.Index, scheme)]
			counts[string(scheme)+"/"+r.Outcome]++
			detail := r.Detail
			if r.Err != "" {
				detail = r.Err
			}
			fmt.Printf("    %-7s %-8s %s\n", scheme, r.Outcome, detail)
		}
	}
	fmt.Printf("chaos: %d runs x %d arms —", len(plan.Runs), len(plan.Arms))
	for _, scheme := range plan.Arms {
		fmt.Printf("  %s: drained %d, budget %d, watchdog %d, wedged %d;",
			scheme, counts[string(scheme)+"/drained"], counts[string(scheme)+"/budget"],
			counts[string(scheme)+"/watchdog"], counts[string(scheme)+"/wedged"])
	}
	fmt.Println()
}

// printLoadSweep renders the classic NoC load-latency curve: mean latency
// versus injection rate under uniform traffic for each scheme, up to the
// pre-saturation region. The ECC modes' extra pipeline stages and the
// reactive baseline's retransmission storms shift both the zero-load
// latency and the saturation point.
func printLoadSweep(rates []float64, byID map[string]campaign.JobResult) {
	fmt.Println("load-latency sweep: mean E2E latency (cycles) vs injection rate, uniform traffic")
	fmt.Printf("%-12s", "pkts/node/cyc")
	for _, sc := range rlnoc.Schemes() {
		fmt.Printf("%12s", sc)
	}
	fmt.Println()
	for _, rate := range rates {
		fmt.Printf("%-12g", rate)
		for _, sc := range rlnoc.Schemes() {
			r, ok := byID[campaign.SweepJobID(rate, sc)]
			if !ok || r.Outcome == campaign.OutcomeDead || r.Outcome == campaign.OutcomeDeadline {
				fmt.Printf("%11s ", "dead")
				continue
			}
			mark := " "
			if !r.Result.Drained {
				mark = "*" // saturated: did not drain within the cap
			}
			fmt.Printf("%11.2f%s", r.Result.MeanLatency, mark)
		}
		fmt.Println()
	}
	fmt.Println("(* = saturated: trace did not drain within the cycle cap)")
}
