package rlnoc

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus microbenchmarks for the overhead analysis. Each figure benchmark
// runs the scheme suite on a reduced configuration (4x4 mesh, shortened
// phases, three representative workloads) and reports the figure's
// normalized per-scheme means as custom metrics; set RLNOC_BENCH_FULL=1
// to run the full 8x8 / nine-benchmark configuration the experiments CLI
// uses (several minutes per figure).

import (
	"os"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/core"
	"rlnoc/internal/power"
	"rlnoc/internal/rl"
)

func benchSetup(b *testing.B) (Config, []string) {
	b.Helper()
	if os.Getenv("RLNOC_BENCH_FULL") != "" {
		return DefaultConfig(), Benchmarks()
	}
	cfg := SmallConfig()
	cfg.PretrainCycles = 30_000
	cfg.WarmupCycles = 2_000
	cfg.MaxCycles = 20_000
	cfg.DrainCycles = 30_000
	return cfg, []string{"blackscholes", "canneal", "dedup"}
}

func benchmarkFigure(b *testing.B, id FigureID) {
	cfg, benches := benchSetup(b)
	for i := 0; i < b.N; i++ {
		suite, err := RunSuite(cfg, benches)
		if err != nil {
			b.Fatal(err)
		}
		fig, err := suite.Figure(id)
		if err != nil {
			b.Fatal(err)
		}
		for _, sc := range Schemes() {
			b.ReportMetric(fig.Mean[sc], string(sc)+"-mean")
		}
	}
}

// BenchmarkFig6Retransmission regenerates Fig. 6: fault-caused
// retransmission traffic, normalized to the CRC baseline.
func BenchmarkFig6Retransmission(b *testing.B) { benchmarkFigure(b, Fig6Retransmission) }

// BenchmarkFig7Speedup regenerates Fig. 7: execution-time speed-up over
// the CRC baseline.
func BenchmarkFig7Speedup(b *testing.B) { benchmarkFigure(b, Fig7Speedup) }

// BenchmarkFig8Latency regenerates Fig. 8: average end-to-end packet
// latency, normalized to CRC.
func BenchmarkFig8Latency(b *testing.B) { benchmarkFigure(b, Fig8Latency) }

// BenchmarkFig9EnergyEfficiency regenerates Fig. 9: flits per unit energy,
// normalized to CRC.
func BenchmarkFig9EnergyEfficiency(b *testing.B) { benchmarkFigure(b, Fig9EnergyEfficiency) }

// BenchmarkFig10DynamicPower regenerates Fig. 10: dynamic power,
// normalized to CRC.
func BenchmarkFig10DynamicPower(b *testing.B) { benchmarkFigure(b, Fig10DynamicPower) }

// BenchmarkTableIISetup measures building the full Table II system (8x8
// mesh, 64 routers with 4 VCs x 5 ports, thermal grid, fault model,
// per-router RL agents) and reports its parameters as metrics.
func BenchmarkTableIISetup(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := core.NewSim(cfg, core.SchemeRL)
		if err != nil {
			b.Fatal(err)
		}
		_ = sim
	}
	b.ReportMetric(float64(cfg.Routers()), "routers")
	b.ReportMetric(float64(cfg.VCsPerPort), "vcs/port")
	b.ReportMetric(float64(cfg.FlitBits), "bits/flit")
}

// BenchmarkOverheadArea reports the Section VI-B area overheads of the
// proposed router versus the three baselines.
func BenchmarkOverheadArea(b *testing.B) {
	var vsCRC, vsARQ, vsDT float64
	for i := 0; i < b.N; i++ {
		vsCRC, vsARQ, vsDT = power.AreaOverheads()
	}
	b.ReportMetric(vsCRC*100, "%vsCRC")
	b.ReportMetric(vsARQ*100, "%vsARQ")
	b.ReportMetric(vsDT*100, "%vsDT")
}

// BenchmarkOverheadQStep measures one RL controller step (state lookup,
// TD update, action selection) — the paper's computation-overhead claim
// is a worst-case 150 ns per step, hidden inside the 1K-cycle epoch.
func BenchmarkOverheadQStep(b *testing.B) {
	agent := rl.NewAgent(config.Default().RL, 1)
	s := rl.State{Buf: 2, InLink: 1, OutLink: 3, InNACK: 1, OutNACK: 0, Temp: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		agent.Step(s, 0.5)
	}
}

// BenchmarkOverheadEnergy reports the RL control logic's per-flit energy
// overhead fraction (paper: 0.16 pJ on 13.1 pJ = 1.2%).
func BenchmarkOverheadEnergy(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		_, _, frac = power.EnergyOverheadPerFlit(power.DefaultParams())
	}
	b.ReportMetric(frac*100, "%overhead")
}
