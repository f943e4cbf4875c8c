package main

import (
	"fmt"

	"rlnoc"
	"rlnoc/internal/campaign"
)

// runChaos sweeps randomized hard-fault kill schedules across both
// topologies with every invariant check armed, running each schedule
// head-to-head: the rl scheme (whose recovery is the table reroute — a
// BFS over the surviving fabric) against qroute (per-router learned
// next-hop selection over the same surviving fabric). The runs execute
// as jobs on the campaign engine — the same code path cmd/nocserve
// drives — so setup, classification and checkpoint recovery live in
// internal/campaign exactly once.
//
// Every run must drain, hit its cycle budget, or terminate through the
// invariant watchdog with a conservation ledger that still balances.
// Anything else — a wedge, an unbalanced account, a job whose retry
// budget runs dry — fails the campaign. Schedules are derived from
// (seed, run) through detrand, so a failing run replays exactly with
// -seed and the printed schedule.
// When snapEvery > 0, every arm checkpoints its state under snapDir; a
// watchdog termination is then replayed from the latest checkpoint with
// flit-level event capture (the invariant-bisection flow), so the
// failing window is preserved for offline analysis instead of being
// buried N cycles deep in a non-reproducing log.
func runChaos(base rlnoc.Config, runs int, snapDir string, snapEvery int64) error {
	plan, err := campaign.BuildChaos(base, runs, snapEvery, campaign.InjectSpec{})
	if err != nil {
		return err
	}
	dir := ""
	if snapEvery > 0 {
		dir = snapDir
	}
	byID, err := campaign.RunSpecs("chaos", dir, base, plan.Specs)
	if err != nil {
		return err
	}
	counts := map[string]int{}
	failed := 0
	for _, run := range plan.Runs {
		fmt.Printf("chaos run %2d  %-5s kills=%d [%s]\n", run.Index, run.Topology, run.Kills, run.Schedule)
		for _, scheme := range plan.Arms {
			r, ok := byID[campaign.ChaosJobID(run.Index, scheme)]
			if !ok {
				return fmt.Errorf("chaos: job %s has no result", campaign.ChaosJobID(run.Index, scheme))
			}
			counts[string(scheme)+"/"+r.Outcome]++
			if r.Outcome == campaign.OutcomeWedged || r.Outcome == campaign.OutcomeDead ||
				r.Outcome == campaign.OutcomeDeadline {
				failed++
			}
			detail := r.Detail
			if r.Err != "" {
				detail = r.Err
			}
			fmt.Printf("    %-7s %-8s %s\n", scheme, r.Outcome, detail)
		}
	}
	fmt.Printf("chaos: %d runs x %d arms —", runs, len(plan.Arms))
	for _, scheme := range plan.Arms {
		fmt.Printf("  %s: drained %d, budget %d, watchdog %d, wedged %d;",
			scheme, counts[string(scheme)+"/drained"], counts[string(scheme)+"/budget"],
			counts[string(scheme)+"/watchdog"], counts[string(scheme)+"/wedged"])
	}
	fmt.Println()
	if failed > 0 {
		return fmt.Errorf("chaos: %d runs wedged or abandoned", failed)
	}
	return nil
}
