package rlnoc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"rlnoc/internal/campaign"
	"rlnoc/internal/config"
	"rlnoc/internal/network"
	"rlnoc/internal/power"
	"rlnoc/internal/stats"
	"rlnoc/internal/traffic"
)

// Suite holds the results of running every scheme over a set of
// benchmarks — the raw material from which each of the paper's figures is
// derived.
type Suite struct {
	Benchmarks []string
	Results    map[string]map[Scheme]Result // benchmark -> scheme -> result
}

// RunSuite executes all four schemes over the given benchmarks (all nine
// PARSEC-like workloads if benchmarks is empty): RunSuiteSeeds for cfg.Seed
// alone, in memory.
func RunSuite(cfg Config, benchmarks []string) (*Suite, error) {
	multi, err := RunSuiteSeeds(cfg, benchmarks, nil, "")
	if err != nil {
		return nil, err
	}
	return multi.Suites[0], nil
}

// Arm is one simulation setup an experiment compares: a configuration and
// a scheme (any name ParseScheme accepts), under a label for reports.
type Arm struct {
	Label  string
	Config Config
	Scheme Scheme
}

// RunArms runs every arm over the given benchmarks (all nine PARSEC-like
// workloads if benchmarks is empty) as one plan on the campaign engine,
// with the first arm's SuiteWorkerCount workers, in dir ("" = in memory,
// touching no file). Each arm pre-trains once and its other benchmarks
// fork that state (DESIGN.md §21). A rerun over dir resumes: it runs only
// the cells no earlier run finished. results[i][b] is arms[i]
// measured on benchmarks[b], the Result Run gives for it alone.
func RunArms(arms []Arm, benchmarks []string, dir string) ([][]Result, error) {
	return runPlan(context.Background(), campaign.Options{Dir: dir}, arms, benchmarks)
}

// runPlan is RunArms under ctx, on an engine opened with opts: Dir and, in
// tests, Logf, which the engine tells of every phase and finished cell.
func runPlan(ctx context.Context, opts campaign.Options, arms []Arm, benchmarks []string) ([][]Result, error) {
	if len(benchmarks) == 0 {
		benchmarks = Benchmarks()
	}
	for _, b := range benchmarks {
		// A misspelt name fails here, not after the pre-training it follows.
		if _, err := traffic.BenchmarkByName(b); err != nil {
			return nil, err
		}
	}
	if len(arms) == 0 {
		return nil, nil
	}
	// One job per cell, named by its content: arms that differ only in
	// label share their cells, and a larger plan over the same directory
	// finds the smaller one's cells finished.
	var specs []campaign.Spec
	for _, arm := range arms {
		for _, bench := range benchmarks {
			cfg := arm.Config
			spec := campaign.Spec{Config: cfg, Scheme: string(arm.Scheme), Label: bench, Pretrain: true,
				// The trace core.BenchmarkTrace synthesizes.
				Trace: campaign.TraceSpec{Benchmark: bench, Cycles: int64(cfg.MaxCycles), Seed: cfg.Seed*31 + 1300}}
			spec.ID = campaign.ContentID(string(arm.Scheme)+"-"+bench, spec)
			specs = append(specs, spec)
		}
	}
	opts.Workers = arms[0].Config.SuiteWorkerCount()
	eng, err := campaign.Open(opts)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if err := eng.Submit(specs...); err != nil {
		return nil, err
	}
	if err := eng.Run(ctx); err != nil {
		return nil, err
	}
	byID := make(map[string]campaign.JobResult)
	for _, r := range eng.Results() {
		byID[r.ID] = r
	}
	results := make([][]Result, len(arms))
	for c, spec := range specs {
		res, err := cellResult(byID[spec.ID])
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", spec.ID, spec.Config.Seed, err)
		}
		results[c/len(benchmarks)] = append(results[c/len(benchmarks)], res)
	}
	return results, nil
}

// cellResult is a finished cell's Result, or why it has none. The engine
// finishes a run that an armed invariant check stopped (RLNOC_CHECKS) as a
// job with outcome watchdog or wedged; its Result is truncated, and a plan
// fails on it as Run fails on the check's error.
func cellResult(r campaign.JobResult) (Result, error) {
	switch {
	case r.Err != "":
		return Result{}, errors.New(r.Err)
	case r.Outcome != campaign.OutcomeDrained && r.Outcome != campaign.OutcomeBudget:
		return Result{}, fmt.Errorf("run ended %s: %s", r.Outcome, r.Detail)
	}
	return r.Result, nil
}

// FigureID names one of the paper's evaluation figures.
type FigureID string

// The paper's five evaluation figures.
const (
	Fig6Retransmission   FigureID = "fig6"  // retransmission packets, normalized to CRC
	Fig7Speedup          FigureID = "fig7"  // execution-time speed-up over CRC
	Fig8Latency          FigureID = "fig8"  // mean E2E latency, normalized to CRC
	Fig9EnergyEfficiency FigureID = "fig9"  // flits/energy, normalized to CRC
	Fig10DynamicPower    FigureID = "fig10" // dynamic power, normalized to CRC
)

// FigureIDs returns all figure IDs in paper order.
func FigureIDs() []FigureID {
	return []FigureID{Fig6Retransmission, Fig7Speedup, Fig8Latency, Fig9EnergyEfficiency, Fig10DynamicPower}
}

// Figure is one regenerated chart: per-benchmark bars for each scheme,
// normalized to the CRC baseline, plus the cross-benchmark mean.
type Figure struct {
	ID    FigureID
	Title string
	// Rows maps benchmark -> scheme -> normalized value.
	Rows map[string]map[Scheme]float64
	// Mean is the arithmetic mean across benchmarks per scheme (the
	// "average" bar of the paper's figures).
	Mean map[Scheme]float64
	// Benchmarks preserves row order.
	Benchmarks []string
	// LowerIsBetter tells renderers which direction wins.
	LowerIsBetter bool
}

// metric extracts the raw (pre-normalization) quantity for a figure.
func metric(id FigureID, r Result) float64 {
	switch id {
	case Fig6Retransmission:
		return r.RetransmittedPacketEq
	case Fig7Speedup:
		return float64(r.ExecutionCycles)
	case Fig8Latency:
		return r.MeanLatency
	case Fig9EnergyEfficiency:
		return r.EnergyEfficiency
	case Fig10DynamicPower:
		return r.DynamicPowerW
	default:
		return 0
	}
}

var figureTitles = map[FigureID]string{
	Fig6Retransmission:   "Fig. 6: retransmission packets (normalized to CRC, lower is better)",
	Fig7Speedup:          "Fig. 7: execution-time speed-up over CRC (higher is better)",
	Fig8Latency:          "Fig. 8: average end-to-end latency (normalized to CRC, lower is better)",
	Fig9EnergyEfficiency: "Fig. 9: energy efficiency (normalized to CRC, higher is better)",
	Fig10DynamicPower:    "Fig. 10: dynamic power (normalized to CRC, lower is better)",
}

// Figure derives one of the paper's figures from the suite.
func (s *Suite) Figure(id FigureID) (Figure, error) {
	title, ok := figureTitles[id]
	if !ok {
		return Figure{}, fmt.Errorf("rlnoc: unknown figure %q", id)
	}
	f := Figure{
		ID:            id,
		Title:         title,
		Rows:          make(map[string]map[Scheme]float64),
		Mean:          make(map[Scheme]float64),
		Benchmarks:    append([]string(nil), s.Benchmarks...),
		LowerIsBetter: id == Fig6Retransmission || id == Fig8Latency || id == Fig10DynamicPower,
	}
	acc := make(map[Scheme][]float64)
	for _, bench := range s.Benchmarks {
		row := make(map[Scheme]float64)
		base := metric(id, s.Results[bench][CRC])
		for _, sc := range Schemes() {
			raw := metric(id, s.Results[bench][sc])
			var v float64
			switch {
			case id == Fig7Speedup:
				// Speed-up: CRC execution time over this scheme's.
				if raw > 0 {
					v = base / raw
				}
			case base > 0:
				v = raw / base
			case raw == 0:
				// 0/0 (e.g. zero retransmissions everywhere): call it parity.
				v = 1
			}
			row[sc] = v
			acc[sc] = append(acc[sc], v)
		}
		f.Rows[bench] = row
	}
	for sc, vals := range acc {
		f.Mean[sc] = stats.Mean(vals)
	}
	return f, nil
}

// Format renders the figure as an aligned text table.
func (f Figure) Format() string {
	var b strings.Builder
	fmt.Fprintln(&b, f.Title)
	fmt.Fprintf(&b, "%-15s", "benchmark")
	for _, sc := range Schemes() {
		fmt.Fprintf(&b, "%10s", sc)
	}
	fmt.Fprintln(&b)
	benches := append([]string(nil), f.Benchmarks...)
	sort.Strings(benches)
	for _, bench := range benches {
		fmt.Fprintf(&b, "%-15s", bench)
		for _, sc := range Schemes() {
			fmt.Fprintf(&b, "%10.3f", f.Rows[bench][sc])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-15s", "mean")
	for _, sc := range Schemes() {
		fmt.Fprintf(&b, "%10.3f", f.Mean[sc])
	}
	fmt.Fprintln(&b)
	return b.String()
}

// MultiSuite holds suites run with different seeds, for mean +/- std
// reporting across runs.
type MultiSuite struct {
	Suites []*Suite
}

// RunSuiteSeeds runs the full suite once per seed (cfg.Seed alone if seeds
// is empty): its arms are every seed under every scheme of Schemes(), all
// one RunArms plan in dir ("" = in memory).
func RunSuiteSeeds(cfg Config, benchmarks []string, seeds []int64, dir string) (*MultiSuite, error) {
	return runSuiteSeeds(context.Background(), campaign.Options{Dir: dir}, cfg, benchmarks, seeds)
}

// runSuiteSeeds is RunSuiteSeeds under ctx, on an engine opened with opts.
func runSuiteSeeds(ctx context.Context, opts campaign.Options, cfg Config, benchmarks []string, seeds []int64) (*MultiSuite, error) {
	if len(seeds) == 0 {
		seeds = []int64{cfg.Seed}
	}
	if len(benchmarks) == 0 {
		benchmarks = Benchmarks()
	}
	schemes := Schemes()
	var arms []Arm
	for _, seed := range seeds {
		for _, scheme := range schemes {
			arm := Arm{Config: cfg, Scheme: scheme}
			arm.Config.Seed = seed
			arms = append(arms, arm)
		}
	}
	results, err := runPlan(ctx, opts, arms, benchmarks)
	if err != nil {
		return nil, err
	}
	multi := &MultiSuite{Suites: make([]*Suite, len(seeds))}
	for i := range seeds {
		suite := &Suite{Benchmarks: benchmarks, Results: make(map[string]map[Scheme]Result)}
		for b, bench := range benchmarks {
			suite.Results[bench] = make(map[Scheme]Result)
			for j, scheme := range schemes {
				suite.Results[bench][scheme] = results[i*len(schemes)+j][b]
			}
		}
		multi.Suites[i] = suite
	}
	return multi, nil
}

// Figure aggregates one figure across seeds: the returned Figure carries
// the across-seed mean of each cell, and the second result holds the
// across-seed standard deviation of each scheme's overall mean.
func (m *MultiSuite) Figure(id FigureID) (Figure, map[Scheme]float64, error) {
	if len(m.Suites) == 0 {
		return Figure{}, nil, fmt.Errorf("rlnoc: empty multi-suite")
	}
	var figs []Figure
	for _, s := range m.Suites {
		f, err := s.Figure(id)
		if err != nil {
			return Figure{}, nil, err
		}
		figs = append(figs, f)
	}
	out := figs[0]
	agg := Figure{
		ID: out.ID, Title: out.Title, Benchmarks: out.Benchmarks,
		LowerIsBetter: out.LowerIsBetter,
		Rows:          make(map[string]map[Scheme]float64),
		Mean:          make(map[Scheme]float64),
	}
	for _, bench := range out.Benchmarks {
		row := make(map[Scheme]float64)
		for _, sc := range Schemes() {
			var vals []float64
			for _, f := range figs {
				vals = append(vals, f.Rows[bench][sc])
			}
			row[sc] = stats.Mean(vals)
		}
		agg.Rows[bench] = row
	}
	std := make(map[Scheme]float64)
	for _, sc := range Schemes() {
		var means []float64
		for _, f := range figs {
			means = append(means, f.Mean[sc])
		}
		agg.Mean[sc] = stats.Mean(means)
		std[sc] = stats.StdDev(means)
	}
	return agg, std, nil
}

// Chart renders the figure as horizontal ASCII bars, one group per
// benchmark, mirroring the paper's bar charts.
func (f Figure) Chart() string {
	const width = 44
	var maxV float64
	for _, row := range f.Rows {
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV <= 0 {
		maxV = 1
	}
	var b strings.Builder
	fmt.Fprintln(&b, f.Title)
	benches := append([]string(nil), f.Benchmarks...)
	sort.Strings(benches)
	for _, bench := range benches {
		fmt.Fprintf(&b, "%s\n", bench)
		for _, sc := range Schemes() {
			v := f.Rows[bench][sc]
			n := int(v / maxV * width)
			if n < 0 {
				n = 0
			}
			if n > width {
				n = width
			}
			fmt.Fprintf(&b, "  %-8s %6.3f %s\n", sc, v, strings.Repeat("#", n))
		}
	}
	fmt.Fprintln(&b, "mean")
	for _, sc := range Schemes() {
		v := f.Mean[sc]
		n := int(v / maxV * width)
		if n < 0 {
			n = 0
		}
		if n > width {
			n = width
		}
		fmt.Fprintf(&b, "  %-8s %6.3f %s\n", sc, v, strings.Repeat("#", n))
	}
	return b.String()
}

// OverheadReport reproduces the Section VI-B overhead analysis: router
// area per variant, the RL router's area overhead ratios, and the RL
// control logic's per-flit energy overhead.
func OverheadReport() string {
	var b strings.Builder
	crc, arq, dt, rl := power.RouterAreas()
	fmt.Fprintln(&b, "Section VI-B overhead analysis (32 nm)")
	fmt.Fprintf(&b, "router area: CRC %.0f um^2, ARQ+ECC %.0f um^2, DT %.0f um^2, RL %.0f um^2\n",
		crc.Total(), arq.Total(), dt.Total(), rl.Total())
	fmt.Fprintf(&b, "RL addition over CRC router: %.0f um^2\n", rl.Total()-crc.Total())
	vsCRC, vsARQ, vsDT := power.AreaOverheads()
	fmt.Fprintf(&b, "area overhead: %.1f%% vs CRC, %.1f%% vs ARQ+ECC, %.1f%% vs DT\n",
		vsCRC*100, vsARQ*100, vsDT*100)
	over, base, frac := power.EnergyOverheadPerFlit(power.DefaultParams())
	fmt.Fprintf(&b, "energy overhead: %.2f pJ/flit on a %.1f pJ/flit baseline = %.1f%%\n",
		over, base, frac*100)
	fmt.Fprintln(&b, "computation overhead: worst-case 150 ns per RL step, hidden inside the 1K-cycle (500 ns x1000) epoch")
	return b.String()
}

// TableII renders the simulation parameters (Table II) for a config.
func TableII(cfg Config) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table II: simulation parameters")
	fmt.Fprintf(&b, "cores / routers     %d (%dx%d 2D %s)\n", cfg.Routers(), cfg.Width, cfg.Height, cfg.TopologyKind())
	fmt.Fprintln(&b, "routing             xy dimension-ordered")
	fmt.Fprintf(&b, "router pipeline     %d stages, %d VCs/port, %d flits/VC\n",
		network.PipelineStages, cfg.VCsPerPort, cfg.VCDepth)
	fmt.Fprintf(&b, "packet              %d bits/flit, %d flits\n", cfg.FlitBits, cfg.FlitsPerPacket)
	fmt.Fprintf(&b, "operating point     %.1f V, %.1f GHz\n", cfg.VoltageV, config.ClockGHz)
	fmt.Fprintf(&b, "RL                  alpha max(0.02, 1/(1+n/4)) at a cell's n-th update, gamma %.2f, epsilon %.2f pre-train / %.2f measured, step %d cycles\n",
		cfg.RL.Gamma, cfg.RL.Epsilon, cfg.RL.TestEpsilon, cfg.RL.StepCycles)
	fmt.Fprintf(&b, "phases              pretrain %d, warmup %d, measure %d, drain %d cycles\n",
		cfg.PretrainCycles, cfg.WarmupCycles, cfg.MaxCycles, cfg.DrainCycles)
	return b.String()
}
