// Adaptive: watch the per-router RL agents switch operation modes live as
// a bursty benchmark heats the chip up and cools it down, then as a quiet
// one leaves it cool — both from one pre-training.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"strings"

	"rlnoc"
)

func main() {
	cfg := rlnoc.SmallConfig()
	cfg.MaxCycles = 60_000

	sess, err := rlnoc.NewSession(cfg, rlnoc.RL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pre-training the RL agents on synthetic traffic...")
	if err := sess.Pretrain(); err != nil {
		log.Fatal(err)
	}

	// Pre-train once, measure many: each workload runs on its own fork of
	// the pre-trained session, exactly as if it had pre-trained for itself.
	for _, bench := range []string{"streamcluster", "swaptions"} {
		events, err := rlnoc.BenchmarkTrace(cfg, bench, int64(cfg.MaxCycles), 3)
		if err != nil {
			log.Fatal(err)
		}
		run, err := sess.Fork()
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("\n%s: mode occupancy every 5K cycles of the measurement phase\n", bench)
		fmt.Printf("%10s %8s %8s  %s\n", "cycle", "meanC", "maxC", "router modes  [m0 m1 m2 m3]")
		run.Observe(5000, func(s rlnoc.Snapshot) {
			bar := func(n int) string { return strings.Repeat("#", n) }
			fmt.Printf("%10d %8.1f %8.1f  [%2d %2d %2d %2d]  %s|%s|%s|%s\n",
				s.Cycle, s.MeanTempC, s.MaxTempC,
				s.ModeCounts[0], s.ModeCounts[1], s.ModeCounts[2], s.ModeCounts[3],
				bar(s.ModeCounts[0]), bar(s.ModeCounts[1]), bar(s.ModeCounts[2]), bar(s.ModeCounts[3]))
		})

		res, err := run.Measure(events, bench)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("final: latency %.2f cycles, %.1f flits/uJ, %d E2E retransmissions\n",
			res.MeanLatency, res.EnergyEfficiency, res.Summary.SourceRetransmissions)
	}
}
