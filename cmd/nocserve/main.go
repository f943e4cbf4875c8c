// Command nocserve is the long-running campaign daemon: it runs sweep,
// chaos, and what-if experiment campaigns as durable jobs on the
// supervised engine in internal/campaign. A panicking run is isolated
// and ends its job (a deterministic run would panic again) with the
// command that replays it; a stalled run is killed snapshot-aware by the
// progress watchdog and resumed once; and a SIGKILL of the daemon itself
// loses nothing: restarting with the same -dir replays the journal and
// resumes every in-flight job from its latest checkpoint, byte-identical
// to the uninterrupted run. SIGTERM is a graceful shutdown: all in-flight
// jobs checkpoint, the journal flushes, and the process exits 0 with the
// campaign resumable.
//
// With -campaign, the finished campaign prints its report — the chaos
// battery's per-arm outcomes, the sweep's latency-vs-load table — and the
// process exits non-zero if any job wedged or died.
// results.json in -dir records every job's terminal result.
//
// Examples:
//
//	nocserve -dir /data/chaos -campaign chaos -runs 16 -snapshot-every 2000
//	nocserve -dir /data/chaos                      # resume after a crash
//	nocserve -dir /data/sweep -campaign loadsweep -snapshot-every 0 -serve :8080
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"rlnoc"
	"rlnoc/internal/campaign"
	"rlnoc/internal/config"
	"rlnoc/internal/snap"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nocserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nocserve", flag.ContinueOnError)
	var (
		dir         = fs.String("dir", "campaign", "campaign directory")
		presetFlag  = fs.String("campaign", "", "campaign to submit: chaos|loadsweep (empty: resume whatever -dir holds)")
		runs        = fs.Int("runs", 4, "chaos kill schedules to sweep (with -campaign chaos)")
		cfgPath     = fs.String("config", "", "JSON config file")
		small       = fs.Bool("small", false, "use the 4x4 quick configuration")
		seed        = fs.Int64("seed", 0, "override random seed")
		workers     = fs.Int("workers", 0, "concurrent jobs (0 = the config's suite workers, else GOMAXPROCS)")
		watchdog    = fs.Duration("watchdog", 30*time.Second, "kill a job whose progress heartbeat is silent this long, and resume it once (0 = off)")
		snapEvery   = fs.Int64("snapshot-every", 2000, "checkpoint each job every N cycles (0 = a resumed job restarts from cycle 0)")
		serveAddr   = fs.String("serve", "", "serve campaign status as JSON on this address (e.g. :8080)")
		statusEvery = fs.Duration("status-every", 10*time.Second, "print the job status table this often (0 = off)")
		injStall    = fs.Int64("inject-stall", 0, "TESTING: stall each job at this cycle until the watchdog kills it (first attempt only)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	switch {
	case *dir == "":
		return errors.New("-dir must name the campaign directory")
	case *workers < 0:
		return fmt.Errorf("-workers must be non-negative, got %d", *workers)
	case *snapEvery < 0:
		return fmt.Errorf("-snapshot-every must be non-negative, got %d", *snapEvery)
	case *watchdog < 0:
		return fmt.Errorf("-watchdog must be non-negative, got %v", *watchdog)
	case *statusEvery < 0:
		return fmt.Errorf("-status-every must be non-negative, got %v", *statusEvery)
	}

	cfg, err := config.Preset(*small, *cfgPath)
	if err != nil {
		return err
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *workers == 0 {
		*workers = cfg.SuiteWorkerCount()
	}

	p, err := buildPreset(*presetFlag, cfg, *runs, *snapEvery, campaign.InjectSpec{StallAtCycle: *injStall})
	if err != nil {
		return err
	}

	logger := log.New(os.Stderr, "nocserve: ", log.LstdFlags)
	eng, err := campaign.Open(campaign.Options{
		Dir:           *dir,
		Workers:       *workers,
		WatchdogAfter: *watchdog,
		Logf:          logger.Printf,
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	// Submit is idempotent over job IDs, so restarting with the same
	// flags re-offers specs the journal already holds, and adds none.
	if err := eng.Submit(p.specs...); err != nil {
		return err
	}
	if len(eng.Status()) == 0 {
		return fmt.Errorf("%s holds no campaign: pass -campaign chaos|loadsweep", *dir)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	if *serveAddr != "" {
		srv := statusServer(*serveAddr, eng)
		defer srv.Close()
	}
	if *statusEvery > 0 {
		go func() {
			ticker := time.NewTicker(*statusEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					printStatus(eng)
				}
			}
		}()
	}

	logger.Printf("campaign %s: %d jobs", *dir, len(eng.Status()))
	if rerr := eng.Run(ctx); rerr != nil {
		// Graceful shutdown: every in-flight job checkpointed, journal
		// flushed. The campaign resumes from -dir.
		printStatus(eng)
		logger.Printf("suspended on %v; restart with -dir %s to resume", rerr, *dir)
		return nil
	}

	results := eng.Results()
	if err := writeResults(*dir, results); err != nil {
		return err
	}
	if p.report != nil {
		byID := map[string]campaign.JobResult{}
		for _, r := range results {
			byID[r.ID] = r
		}
		p.report(byID)
	} else {
		printStatus(eng)
	}
	if err := verdict(results); err != nil {
		return err
	}
	logger.Printf("campaign complete: %d jobs, none wedged or lost", len(results))
	return nil
}

// preset is a stock campaign: the specs it submits and the report its
// results print (nil for resume-only mode, which prints the status tally).
type preset struct {
	specs  []campaign.Spec
	report func(byID map[string]campaign.JobResult)
}

// buildPreset materializes the named campaign ("" builds none: resume-only
// mode).
func buildPreset(name string, cfg rlnoc.Config, runs int, snapEvery int64, inject campaign.InjectSpec) (preset, error) {
	switch name {
	case "":
		return preset{}, nil
	case "chaos":
		plan, err := campaign.BuildChaos(cfg, runs, snapEvery, inject)
		if err != nil {
			return preset{}, err
		}
		return preset{plan.Specs, func(byID map[string]campaign.JobResult) { printChaos(plan, byID) }}, nil
	case "loadsweep":
		rates := campaign.LoadSweepRates
		specs := campaign.BuildLoadSweep(cfg, rates, snapEvery)
		return preset{specs, func(byID map[string]campaign.JobResult) { printLoadSweep(rates, byID) }}, nil
	default:
		return preset{}, fmt.Errorf("unknown campaign %q (want chaos|loadsweep)", name)
	}
}

// verdict is the campaign's exit status: every job must end drained, at
// its cycle budget, or terminated by the invariant watchdog with a
// balanced ledger. A wedge or a failed attempt fails the campaign.
func verdict(results []campaign.JobResult) error {
	failed := map[string]int{}
	for _, r := range results {
		failed[r.Outcome]++
	}
	wedged, dead := failed[campaign.OutcomeWedged], failed[campaign.OutcomeDead]
	if wedged+dead == 0 {
		return nil
	}
	return fmt.Errorf("campaign failed: %d of %d jobs wedged or lost (%d wedged, %d dead)",
		wedged+dead, len(results), wedged, dead)
}

// writeResults persists the terminal results next to the journal, so a
// finished campaign's numbers survive without grepping the journal.
func writeResults(dir string, results []campaign.JobResult) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return snap.WriteRawAtomic(filepath.Join(dir, "results.json"), append(data, '\n'))
}

// printStatus renders the periodic job table: a one-line tally plus one
// row per running job.
func printStatus(eng *campaign.Engine) {
	sts := eng.Status()
	counts := map[string]int{}
	for _, st := range sts {
		counts[st.State]++
	}
	fmt.Printf("status: %d jobs — %d done, %d running, %d pending, %d dead\n",
		len(sts), counts["done"], counts["running"], counts["pending"], counts["dead"])
	if counts["running"] == 0 {
		return
	}
	fmt.Printf("  %-24s %8s %8s %12s\n", "job", "starts", "fails", "cycle")
	for _, st := range sts {
		if st.State == "running" {
			fmt.Printf("  %-24s %8d %8d %12d\n", st.ID, st.Starts, st.Attempts, st.Cycle)
		}
	}
}

// statusServer serves statusHandler on addr. Both routes answer from
// memory, so a client that takes seconds to send its headers or read the
// reply is stuck or hostile, and its connection is dropped rather than
// held open.
func statusServer(addr string, eng *campaign.Engine) *http.Server {
	srv := &http.Server{
		Addr:              addr,
		Handler:           statusHandler(eng),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "nocserve: serve:", err)
		}
	}()
	return srv
}

// statusHandler is the read-only status surface, as JSON: GET /status
// (live job table) and GET /results (terminal results so far). Any other
// method is refused, so no request body is ever read.
func statusHandler(eng *campaign.Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(eng.Status())
	})
	mux.HandleFunc("GET /results", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(eng.Results())
	})
	return mux
}
