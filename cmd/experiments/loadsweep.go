package main

import (
	"fmt"

	"rlnoc"
	"rlnoc/internal/campaign"
)

// runLoadSweep produces the classic NoC load-latency curve: mean latency
// versus injection rate under uniform traffic for each scheme, up to the
// pre-saturation region. The ECC modes' extra pipeline stages and the
// reactive baseline's retransmission storms shift both the zero-load
// latency and the saturation point. The (rate, scheme) grid runs as a
// job campaign on the supervised engine, so a wedged or crashed cell
// retries instead of losing the sweep.
func runLoadSweep(cfg rlnoc.Config) error {
	rates := campaign.LoadSweepRates
	byID, err := campaign.RunSpecs("loadsweep", "", cfg, campaign.BuildLoadSweep(cfg, rates, 0))
	if err != nil {
		return err
	}

	fmt.Println("load-latency sweep: mean E2E latency (cycles) vs injection rate, uniform traffic")
	fmt.Printf("%-12s", "pkts/node/cyc")
	for _, sc := range rlnoc.Schemes() {
		fmt.Printf("%12s", sc)
	}
	fmt.Println()
	dead := 0
	for _, rate := range rates {
		fmt.Printf("%-12g", rate)
		for _, sc := range rlnoc.Schemes() {
			r, ok := byID[campaign.SweepJobID(rate, sc)]
			if !ok || r.Outcome == campaign.OutcomeDead || r.Outcome == campaign.OutcomeDeadline {
				dead++
				fmt.Printf("%11s ", "dead")
				continue
			}
			mark := ""
			if !r.Result.Drained {
				mark = "*" // saturated: did not drain within the cap
			}
			fmt.Printf("%11.2f%s", r.Result.MeanLatency, mark)
			if mark == "" {
				fmt.Printf(" ")
			}
		}
		fmt.Println()
	}
	fmt.Println("(* = saturated: trace did not drain within the cycle cap)")
	if dead > 0 {
		return fmt.Errorf("loadsweep: %d cells abandoned", dead)
	}
	return nil
}
