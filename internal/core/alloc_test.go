package core

import (
	"io"
	"runtime"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/traffic"
)

// allocatedMB runs f and returns the megabytes it allocated
// (runtime.MemStats.TotalAlloc delta: the benchmark's alloc_mb).
func allocatedMB(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// TestNewSimAllocBudget keeps the 53 MB constructor from coming back:
// building the default-config rl sim used to allocate 64 Q-table sets to
// keep one (53.6 MB, 98 % of it in rl.NewSharedAgents). One table set is
// 0.8 MB and the fabric about 1.5 MB.
func TestNewSimAllocBudget(t *testing.T) {
	cfg := config.Default()
	build := func() {
		sim, err := NewSim(cfg, SchemeRL)
		if err != nil {
			t.Fatal(err)
		}
		sim.Close()
	}
	build() // fill the process-wide topology memo first
	if mb := allocatedMB(build); mb > 4 {
		t.Errorf("core.NewSim(default, rl) allocated %.1f MB, budget 4 MB", mb)
	}
}

// TestInjectorOneSlab: the injector's queues are carved from one slab
// sized by a counting pass, in trace order per source, and the trace
// handed in (possibly shared) is not written.
func TestInjectorOneSlab(t *testing.T) {
	events := []traffic.Event{
		{Cycle: 0, Src: 2, Dst: 0, Flits: 1},
		{Cycle: 1, Src: 0, Dst: 1, Flits: 4},
		{Cycle: 1, Src: 2, Dst: 3, Flits: 4},
		{Cycle: 5, Src: 2, Dst: 1, Flits: 1},
		{Cycle: 9, Src: 0, Dst: 3, Flits: 4},
	}
	orig := append([]traffic.Event(nil), events...)
	in := newInjector(events, 4, 2, 100)
	want := [][]traffic.Event{{orig[1], orig[4]}, nil, {orig[0], orig[2], orig[3]}, nil}
	for src, q := range in.queues {
		if len(q) != len(want[src]) || cap(q) != len(q) {
			t.Fatalf("source %d: queue len %d cap %d, want len=cap=%d", src, len(q), cap(q), len(want[src]))
		}
		for i := range q {
			if q[i] != want[src][i] {
				t.Fatalf("source %d event %d = %+v, want %+v", src, i, q[i], want[src][i])
			}
		}
	}
	if in.remaining != len(events) {
		t.Fatalf("remaining = %d", in.remaining)
	}
	in.queues[2][0].Cycle = -1
	for i := range events {
		if events[i] != orig[i] {
			t.Fatal("the injector aliases or modified the caller's trace")
		}
	}
	big := make([]traffic.Event, 50_000)
	for i := range big {
		big[i] = traffic.Event{Cycle: int64(i), Src: i % 64, Dst: (i + 1) % 64, Flits: 4}
	}
	if allocs := testing.AllocsPerRun(3, func() { newInjector(big, 64, 4, 0) }); allocs > 6 {
		t.Errorf("newInjector made %.0f allocations for 64 queues; want one slab, not a grown slice per source", allocs)
	}
}

// TestSnapshotAllocBudget: encoding a checkpoint allocates per snapshot —
// one codec, two intern tables, the sorted keys of each non-empty map —
// never per router, packet or reference. A walk-local that escapes (a
// scratch header, a reference index, a method value bound per VC) shows
// up here as thousands of allocations on a loaded 8x8.
func TestSnapshotAllocBudget(t *testing.T) {
	cfg := config.Default()
	cfg.PretrainCycles = 0
	cfg.WarmupCycles = 100
	cfg.MaxCycles = 3000
	topo, err := topologyOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := traffic.Synthetic(topo, traffic.Uniform, 0.02, cfg.FlitsPerPacket, int64(cfg.MaxCycles), 7)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(cfg, SchemeRL)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	measured := false
	sim.SetObserver(1500, func(s Snapshot) {
		if measured {
			return
		}
		measured = true
		if s.DataInFlight < 20 {
			t.Errorf("only %d packets in flight; the budget would hold trivially", s.DataInFlight)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := sim.WriteSnapshot(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 400 {
			t.Errorf("WriteSnapshot made %.0f allocations with %d packets in flight, budget 400", allocs, s.DataInFlight)
		}
	})
	if _, err := sim.Measure(events, "allocs"); err != nil {
		t.Fatal(err)
	}
	if !measured {
		t.Fatal("run ended before the snapshot point")
	}
}
