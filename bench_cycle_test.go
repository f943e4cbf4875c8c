package rlnoc

// The cycle-loop scenario table: one row per steady-state workload of
// Network.Step, driving both the BenchmarkCycleLoop* benches (speed and
// allocs/op while working; profile them with go test's own -cpuprofile /
// -memprofile) and TestCycleLoopAllocBudget, the allocation gate. Speed
// is not gated here — wall-clock measures the host and the day — it is
// judged by benchmark/ on parent-vs-change runs of one host.

import (
	"runtime"
	"slices"
	"testing"

	"rlnoc/internal/core"
	"rlnoc/internal/network"
	"rlnoc/internal/traffic"
)

const (
	// cycleLoopRate is the baseline injection rate (packets/node/cycle):
	// busy enough that every router sees traffic, below saturation so the
	// loop stays in steady state.
	cycleLoopRate = 0.01
	// cycleLoopLoadedRate drives the Mode-2 rows near the top of the
	// activity spectrum (duplicated flits on every link), bounding the
	// bookkeeping overhead of the active sets when there is little to skip.
	cycleLoopLoadedRate = 0.05
	// cycleLoopWarmup brings a fabric to steady state before anything is
	// measured, so the numbers reflect the cruising loop, not cold-buffer
	// growth.
	cycleLoopWarmup = 2_000
	// largeAllocBudget is the absolute allocs/cycle ceiling on the loaded
	// 16x16 and 32x32 rows: steady state stays within single-digit
	// allocations per simulated cycle (pooled flits and packets) no matter
	// the fabric size.
	largeAllocBudget = 8
)

// cycleLoopRow is one scenario: a square fabric, an adaptive scheme or a
// pinned mode, an injection rate, a warm-up and an allocation budget.
type cycleLoopRow struct {
	name     string
	scheme   core.Scheme  // adaptive scheme; empty pins every router to mode
	mode     network.Mode // the pinned mode of a static row
	topology string       // empty keeps the mesh
	side     int
	rate     float64
	warmup   int64   // cycles stepped before measuring
	budget   float64 // allocs/cycle ceiling; 0 leaves the row to the benches
}

// measured is the window the budget test counts over; a quarter as long
// on the 32x32 fabric, which steps 16x the routers of the 8x8 per cycle.
func (r cycleLoopRow) measured() int64 {
	if r.side >= 32 {
		return 2_500
	}
	return 10_000
}

// largeRate is the loaded Mode-2 rate on a side x side mesh. It scales
// as 6/side: the mean uniform-traffic hop count grows with the side, so a
// constant per-node rate would push the larger fabrics past their
// bisection capacity. The driver is open-loop (no source window), and a
// saturated fabric grows its queues without bound — the numbers would
// measure queue reallocation, not the cycle loop. The scaling holds
// per-link load at about 60% of the bisection (counting Mode 2's
// duplication), loaded but convergent.
func largeRate(side int) float64 { return cycleLoopLoadedRate * 6 / float64(side) }

// The sequential 8x8 budgets are 1.25x the allocs/cycle last recorded for
// the row plus 0.5: headroom for runtime-internal allocations without
// letting a per-event allocation site (one per flit is about +100%) slip
// through. The 32x32 rows warm up longer: their in-flight population
// approaches steady state over several times the packet latency, and
// measuring before that reports pool growth as per-cycle allocation.
var cycleLoopRows = []cycleLoopRow{
	{name: "crc", scheme: core.SchemeCRC, side: 8, rate: cycleLoopRate, warmup: cycleLoopWarmup, budget: 0.52},
	{name: "arq-ecc", scheme: core.SchemeARQ, side: 8, rate: cycleLoopRate, warmup: cycleLoopWarmup, budget: 0.51},
	{name: "dt", scheme: core.SchemeDT, side: 8, rate: cycleLoopRate, warmup: cycleLoopWarmup, budget: 0.62},
	{name: "rl", scheme: core.SchemeRL, side: 8, rate: cycleLoopRate, warmup: cycleLoopWarmup, budget: 0.58},
	{name: "idle", mode: network.Mode0, side: 8, rate: 0, warmup: cycleLoopWarmup, budget: 0.50},
	{name: "mode2-loaded", mode: network.Mode2, side: 8, rate: cycleLoopLoadedRate, warmup: cycleLoopWarmup, budget: 3.75},
	{name: "torus-rl", scheme: core.SchemeRL, topology: "torus", side: 8, rate: cycleLoopRate, warmup: cycleLoopWarmup, budget: 0.58},
	{name: "par16-w1", mode: network.Mode2, side: 16, rate: largeRate(16), warmup: cycleLoopWarmup, budget: largeAllocBudget},
	{name: "par32-w1", mode: network.Mode2, side: 32, rate: largeRate(32), warmup: 2 * cycleLoopWarmup, budget: largeAllocBudget},
}

// cycleLoop is a constructed row: the simulation, its open-loop trace
// and the cursor into it.
type cycleLoop struct {
	net    *network.Network
	events []traffic.Event
	next   int
}

// newCycleLoop builds a row with a trace long enough to step `measured`
// cycles past its warm-up. Invariant checks are pinned off so an
// RLNOC_CHECKS environment cannot perturb the numbers.
func newCycleLoop(tb testing.TB, row cycleLoopRow, measured int64) *cycleLoop {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Checks = "off"
	cfg.Width, cfg.Height = row.side, row.side
	if row.topology != "" {
		cfg.Topology = row.topology
	}
	var (
		sim *core.Sim
		err error
	)
	if row.scheme == "" {
		sim, err = core.NewStaticSim(cfg, row.mode)
	} else {
		sim, err = core.NewSim(cfg, row.scheme)
	}
	if err != nil {
		tb.Fatal(err)
	}
	events, err := traffic.Synthetic(sim.Network().Topology(), traffic.Uniform, row.rate,
		cfg.FlitsPerPacket, row.warmup+measured+1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return &cycleLoop{net: sim.Network(), events: events}
}

// runTo injects every due event and steps, cycle by cycle, until the
// network clock reads `until`.
func (l *cycleLoop) runTo(tb testing.TB, until int64) {
	for l.net.Cycle() < until {
		for l.next < len(l.events) && l.events[l.next].Cycle <= l.net.Cycle() {
			e := l.events[l.next]
			if _, err := l.net.NewDataPacket(e.Src, e.Dst, e.Flits, l.net.Cycle()); err != nil {
				tb.Fatal(err)
			}
			l.next++
		}
		if err := l.net.Step(); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestCycleLoopAllocBudget holds every budgeted row's steady-state
// allocations per simulated cycle under the row's constant. The count is
// a property of the code, not the host: the same trace allocates the same
// objects wherever it runs.
func TestCycleLoopAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("only the race steps pass -short, and the race runtime allocates on its own")
	}
	for _, row := range cycleLoopRows {
		if row.budget == 0 {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			cycles := row.measured()
			l := newCycleLoop(t, row, cycles)
			l.runTo(t, row.warmup)
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			l.runTo(t, row.warmup+cycles)
			runtime.ReadMemStats(&after)
			got := float64(after.Mallocs-before.Mallocs) / float64(cycles)
			t.Logf("%.3f allocs/cycle (budget %.2f)", got, row.budget)
			if got > row.budget {
				t.Errorf("over budget across %d measured cycles", cycles)
			}
		})
	}
}

func benchmarkCycleLoop(b *testing.B, name string) {
	i := slices.IndexFunc(cycleLoopRows, func(r cycleLoopRow) bool { return r.name == name })
	if i < 0 {
		b.Fatalf("no cycle-loop row %q", name)
	}
	row := cycleLoopRows[i]
	l := newCycleLoop(b, row, int64(b.N))
	l.runTo(b, row.warmup)
	b.ReportAllocs()
	b.ResetTimer()
	l.runTo(b, row.warmup+int64(b.N))
	b.ReportMetric(float64(row.side*row.side)*float64(b.N)/b.Elapsed().Seconds(), "router-cycles/s")
}

// The 8x8 rows: the four schemes at the baseline rate (ARQ+ECC is the
// heaviest per-link path, RL adds the per-epoch observe/decide path),
// the same RL workload on the torus, and the two ends of the activity
// spectrum — Idle (nothing moves; activity-proportional stepping should
// cost near nothing) and Mode2Loaded (almost nothing can be skipped; the
// marking bookkeeping is pure overhead).
func BenchmarkCycleLoopCRC(b *testing.B)         { benchmarkCycleLoop(b, "crc") }
func BenchmarkCycleLoopARQ(b *testing.B)         { benchmarkCycleLoop(b, "arq-ecc") }
func BenchmarkCycleLoopDT(b *testing.B)          { benchmarkCycleLoop(b, "dt") }
func BenchmarkCycleLoopRL(b *testing.B)          { benchmarkCycleLoop(b, "rl") }
func BenchmarkCycleLoopTorusRL(b *testing.B)     { benchmarkCycleLoop(b, "torus-rl") }
func BenchmarkCycleLoopIdle(b *testing.B)        { benchmarkCycleLoop(b, "idle") }
func BenchmarkCycleLoopMode2Loaded(b *testing.B) { benchmarkCycleLoop(b, "mode2-loaded") }

// The large rows: loaded Mode 2 on 16x16 and 32x32 meshes, past the
// paper's 8x8. The -w1 in their names (one Step worker) dates from when
// Step could be sharded (DESIGN.md section 11).
func BenchmarkCycleLoopLoaded16(b *testing.B) { benchmarkCycleLoop(b, "par16-w1") }
func BenchmarkCycleLoopLoaded32(b *testing.B) { benchmarkCycleLoop(b, "par32-w1") }
