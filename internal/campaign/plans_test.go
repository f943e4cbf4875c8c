package campaign

import (
	"context"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/fault"
	"rlnoc/internal/topology"
)

// TestBuildChaosKeepsFittingWarmup pins the specs of a plan whose warm-up
// already fits inside the chaos trace: the warm-up is untouched and every
// kill schedule is still drawn from the warm-up plus the trace window.
func TestBuildChaosKeepsFittingWarmup(t *testing.T) {
	for _, warmup := range []int{0, 2000, ChaosTraceCycles - 1} {
		base := config.Small()
		base.WarmupCycles = warmup
		plan, err := BuildChaos(base, 4, 0, InjectSpec{})
		if err != nil {
			t.Fatal(err)
		}
		for i, run := range plan.Runs {
			for arm := range plan.Arms {
				cfg := plan.Specs[i*len(plan.Arms)+arm].Config
				if cfg.WarmupCycles != warmup {
					t.Fatalf("warm-up %d, run %d: spec carries warm-up %d", warmup, i, cfg.WarmupCycles)
				}
				topo, err := topology.FromConfig(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := fault.FormatSchedule(fault.RandomSchedule(base.Seed, uint64(i), topo,
					run.Kills, int64(warmup)+ChaosTraceCycles))
				if cfg.HardFaults != want || run.Schedule != want {
					t.Fatalf("warm-up %d, run %d: schedule %q, want %q", warmup, i, cfg.HardFaults, want)
				}
			}
		}
	}
}

// TestBuildChaosClampsOverlongWarmup covers the default configuration,
// whose 50k-cycle warm-up used to outlast the 4k-cycle chaos trace and
// kill every arm with "core: warm-up longer than the run".
func TestBuildChaosClampsOverlongWarmup(t *testing.T) {
	for _, warmup := range []int{ChaosTraceCycles, config.Default().WarmupCycles} {
		base := config.Small()
		base.WarmupCycles = warmup
		plan, err := BuildChaos(base, 2, 0, InjectSpec{})
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range plan.Specs {
			if got := spec.Config.WarmupCycles; got != ChaosTraceCycles/2 {
				t.Fatalf("warm-up %d: spec %s carries warm-up %d, want %d", warmup, spec.ID, got, ChaosTraceCycles/2)
			}
			sched, err := fault.ParseHardFaults(spec.Config.HardFaults)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range sched {
				if h.Cycle > ChaosTraceCycles/2+ChaosTraceCycles {
					t.Fatalf("spec %s: kill at cycle %d lands after the trace", spec.ID, h.Cycle)
				}
			}
		}
		eng := openTestEngine(t, Options{Workers: 2, MaxAttempts: 1})
		if err := eng.Submit(plan.Specs...); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, r := range eng.Results() {
			if r.Outcome != OutcomeDrained && r.Outcome != OutcomeBudget {
				t.Errorf("warm-up %d: job %s finished %s: %s", warmup, r.ID, r.Outcome, r.Err)
			}
		}
	}
}
