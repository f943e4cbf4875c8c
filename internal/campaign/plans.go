package campaign

// Builders for the stock campaign shapes `cmd/nocserve -campaign` submits:
// the chaos battery and the load-latency sweep. The setup logic (schedule
// derivation, topology provisioning, per-arm snapshot policy) lives here
// exactly once.

import (
	"fmt"

	"rlnoc/internal/config"
	"rlnoc/internal/core"
	"rlnoc/internal/fault"
	"rlnoc/internal/topology"
)

// ChaosTraceCycles bounds the injected trace of one chaos run; kill
// cycles are drawn from the warm-up plus this window so every scheduled
// fault fires while traffic is in flight.
const ChaosTraceCycles = 4000

// ChaosRun describes one kill schedule of a chaos plan — the metadata
// the report needs to label its arms.
type ChaosRun struct {
	Index    int
	Topology string
	Kills    int
	Schedule string
}

// ChaosPlan is a built chaos campaign: runs-many randomized kill
// schedules, each run head-to-head across Arms (rl vs qroute on
// identical kills and traffic).
type ChaosPlan struct {
	Runs  []ChaosRun
	Arms  []core.Scheme
	Specs []Spec
}

// ChaosJobID names the job for one (run, arm) pair.
func ChaosJobID(run int, scheme core.Scheme) string {
	return fmt.Sprintf("chaos-%03d-%s", run, scheme)
}

// BuildChaos derives a chaos campaign from (base.Seed, run index)
// through detrand: randomized hard-fault kill schedules swept across
// both topologies with every invariant check armed. snapEvery > 0
// enables per-arm checkpoints, which both arms the engine's
// checkpoint recovery and gives a watchdog termination a checkpoint to
// name in the replay command it logs (Sim.ReplayCommand).
func BuildChaos(base config.Config, runs int, snapEvery int64, inject InjectSpec) (*ChaosPlan, error) {
	if runs < 1 {
		// A campaign of no jobs would report success having run nothing.
		return nil, fmt.Errorf("campaign: chaos needs at least one run, got %d", runs)
	}
	topos := []string{"mesh", "torus"}
	plan := &ChaosPlan{Arms: []core.Scheme{core.SchemeRL, core.SchemeQRoute}}
	for i := 0; i < runs; i++ {
		cfg := base
		cfg.Topology = topos[i%len(topos)]
		cfg.Checks = "all"
		if cfg.WarmupCycles >= ChaosTraceCycles {
			// The run must outlast its warm-up or the arm dies with
			// nothing measured (config.Default's 50k warm-up against this
			// 4k trace). A warm-up that already fits is left alone, so
			// those plans keep their kill schedules.
			cfg.WarmupCycles = ChaosTraceCycles / 2
		}
		if cfg.Topology == "torus" && cfg.VCsPerPort < 8 {
			// qroute quarters the data VCs on a wraparound fabric
			// (escape/adaptive x dateline); provision both arms alike so
			// the comparison stays buffer-for-buffer fair.
			cfg.VCsPerPort = 8
		}
		kills := 1 + i%4

		topo, err := topology.FromConfig(cfg)
		if err != nil {
			return nil, err
		}
		maxKill := int64(cfg.WarmupCycles) + ChaosTraceCycles
		sched := fault.RandomSchedule(cfg.Seed, uint64(i), topo, kills, maxKill)
		cfg.HardFaults = fault.FormatSchedule(sched)
		plan.Runs = append(plan.Runs, ChaosRun{
			Index: i, Topology: cfg.Topology, Kills: kills, Schedule: cfg.HardFaults,
		})

		for _, scheme := range plan.Arms {
			plan.Specs = append(plan.Specs, Spec{
				ID:     ChaosJobID(i, scheme),
				Config: cfg,
				Scheme: string(scheme),
				Label:  fmt.Sprintf("chaos-%d", i),
				Trace: TraceSpec{
					Pattern: "uniform", Rate: 0.01,
					Cycles: ChaosTraceCycles, Seed: cfg.Seed + int64(i)*1000,
				},
				SnapshotEvery: snapEvery,
				Inject:        inject,
			})
		}
	}
	return plan, nil
}

// LoadSweepRates are the injection rates (packets/node/cycle) of the
// stock load-latency sweep, up to the pre-saturation region.
var LoadSweepRates = []float64{0.001, 0.002, 0.004, 0.006, 0.008, 0.010}

// SweepJobID names the job for one (rate, scheme) pair.
func SweepJobID(rate float64, scheme core.Scheme) string {
	return fmt.Sprintf("sweep-r%g-%s", rate, scheme)
}

// BuildLoadSweep builds the load-latency curve campaign: mean latency
// versus injection rate under uniform traffic for each of the paper's
// four schemes, full methodology (pre-train included: once per scheme,
// every rate measuring from that state), checkpointing every snapEvery
// cycles.
func BuildLoadSweep(base config.Config, rates []float64, snapEvery int64) []Spec {
	var specs []Spec
	for _, rate := range rates {
		for _, scheme := range core.Schemes() {
			specs = append(specs, Spec{
				ID:       SweepJobID(rate, scheme),
				Config:   base,
				Scheme:   string(scheme),
				Label:    "sweep",
				Pretrain: true,
				Trace: TraceSpec{
					Pattern: "uniform", Rate: rate,
					Cycles: int64(base.MaxCycles), Seed: base.Seed + 11,
				},
				SnapshotEvery: snapEvery,
			})
		}
	}
	return specs
}
