// Command experiments regenerates the paper's evaluation: every figure
// (Fig. 6-10), the Table II parameter listing, the Section VI-B overhead
// analysis, the closed-form cost model, and the ablation studies DESIGN.md
// calls out. Campaigns (the chaos battery, the load-latency sweep) run
// through cmd/nocserve; one simulation, fresh or restored, through
// cmd/nocsim.
//
// Examples:
//
//	experiments -table2
//	experiments -fig 8 -benchmarks canneal,dedup
//	experiments -all
//	experiments -overhead
//	experiments -ablation rl-params
//	experiments -all -seeds 5 -dir runs/all   # rerun the same to resume
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"rlnoc"
	"rlnoc/internal/config"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		figFlag   = fs.String("fig", "", "regenerate one figure: 6|7|8|9|10")
		all       = fs.Bool("all", false, "regenerate every figure")
		table2    = fs.Bool("table2", false, "print the Table II parameters")
		overhead  = fs.Bool("overhead", false, "print the Section VI-B overhead analysis")
		ablation  = fs.String("ablation", "", "run an ablation: "+strings.Join(studyNames(), "|"))
		benchFlag = fs.String("benchmarks", "", "comma-separated benchmark subset (default: all nine; canneal for -ablation)")
		cfgPath   = fs.String("config", "", "JSON config file")
		small     = fs.Bool("small", false, "use the 4x4 quick configuration (fast, noisier)")
		seed      = fs.Int64("seed", 0, "override random seed")
		topoFlag  = fs.String("topology", "", "fabric topology: mesh|torus (default: config)")
		chart     = fs.Bool("chart", false, "render figures as ASCII bar charts instead of tables")
		seeds     = fs.Int("seeds", 1, "number of seeds to average figures over (mean +/- std)")
		analytic  = fs.Bool("analytic", false, "print the closed-form mode cost model and crossover thresholds")
		workers   = fs.Int("workers", 0, "suite worker pool size (0 = GOMAXPROCS)")
		dir       = fs.String("dir", "", "campaign directory for the figure and ablation runs; rerunning over it resumes (default: none, the runs stay in memory)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1, got %d", *seeds)
	}
	if *ablation != "" && *seeds > 1 {
		return fmt.Errorf("-seeds averages the figures only; an -ablation table runs one seed (pick it with -seed)")
	}

	cfg, err := config.Preset(*small, *cfgPath)
	if err != nil {
		return err
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *topoFlag != "" {
		cfg.Topology = *topoFlag
	}
	if *workers != 0 {
		cfg.SuiteWorkers = *workers
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	var benchmarks []string
	if *benchFlag != "" {
		benchmarks = strings.Split(*benchFlag, ",")
	}

	did := false
	if *table2 {
		fmt.Print(rlnoc.TableII(cfg))
		did = true
	}
	if *overhead {
		fmt.Print(rlnoc.OverheadReport())
		did = true
	}
	if *analytic {
		printAnalytic(cfg)
		did = true
	}
	if *ablation != "" {
		if err := runAblation(cfg, *ablation, benchmarks, *dir); err != nil {
			return err
		}
		did = true
	}
	if *figFlag != "" || *all {
		ids := map[string]rlnoc.FigureID{
			"6": rlnoc.Fig6Retransmission, "7": rlnoc.Fig7Speedup,
			"8": rlnoc.Fig8Latency, "9": rlnoc.Fig9EnergyEfficiency,
			"10": rlnoc.Fig10DynamicPower,
		}
		var wanted []rlnoc.FigureID
		if *all {
			wanted = rlnoc.FigureIDs()
		} else {
			id, ok := ids[*figFlag]
			if !ok {
				return fmt.Errorf("unknown figure %q (want 6..10)", *figFlag)
			}
			wanted = []rlnoc.FigureID{id}
		}
		var seedList []int64
		for s := int64(0); s < int64(*seeds); s++ {
			seedList = append(seedList, cfg.Seed+s)
		}
		cells := len(benchmarks)
		if cells == 0 {
			cells = len(rlnoc.Benchmarks())
		}
		cells *= len(rlnoc.Schemes())
		// What the run simulates: each scheme pre-trains once per seed and
		// every cell measures from that state (DESIGN.md §21 has wall times).
		fmt.Fprintf(os.Stderr, "running suite: %d seed(s), each %d pre-trainings of %d cycles then %d cells of about %d cycles...\n",
			len(seedList), len(rlnoc.Schemes()), cfg.PretrainCycles, cells, cfg.WarmupCycles+cfg.MaxCycles)
		multi, err := rlnoc.RunSuiteSeeds(cfg, benchmarks, seedList, *dir)
		if err != nil {
			return err
		}
		for _, id := range wanted {
			f, std, err := multi.Figure(id)
			if err != nil {
				return err
			}
			if *chart {
				fmt.Println(f.Chart())
			} else {
				fmt.Println(f.Format())
			}
			if *seeds > 1 {
				fmt.Printf("across-seed std of means:")
				for _, sc := range rlnoc.Schemes() {
					fmt.Printf("  %s %.3f", sc, std[sc])
				}
				fmt.Println()
				fmt.Println()
			}
		}
		did = true
	}
	if !did {
		fs.Usage()
	}
	return nil
}
