package core

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/network"
	"rlnoc/internal/snap"
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

// TestNewSimAllocBudget keeps the constructor small: building the
// default-config rl sim once allocated 64 Q-table sets to keep one
// (53.6 MB), then one dense set of 0.8 MB (1.19 MB in all). A sparse
// table is a 20 KB state index and a 256-row slab of 28 KB; the fabric is
// most of the rest. Budgets are 1.25x the 0.359 MB (shared table) and
// 3.31 MB (a table per router, 50.4 MB dense) measured when the 1,280
// input VCs became 24-byte control words over their router's flit slab;
// as 96-byte slice-header structs they made it 0.448 and 3.40 MB.
func TestNewSimAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		shared bool
		budget float64
	}{{true, 0.45}, {false, 4.14}} {
		cfg := config.Default()
		cfg.RL.SharedTable = tc.shared
		build := func() {
			if _, err := NewSim(cfg, SchemeRL); err != nil {
				t.Fatal(err)
			}
		}
		build() // fill the process-wide topology memo first
		if mb := allocatedMB(build); mb > tc.budget {
			t.Errorf("core.NewSim(default, rl, SharedTable=%v) allocated %.2f MB, budget %.2f MB", tc.shared, mb, tc.budget)
		}
	}
}

// TestMeasureAllocBudget keeps a measured phase to what its traffic needs:
// a 3k-cycle, fault-free 8x8 static-mode-2 measure at 0.02
// packets/node/cycle (3,802 packets) allocates the injector's queues and
// the packet, flit and reassembly working sets, and nothing per node. The
// budget is 1.25x the 0.2245 MB measured when packet payloads became
// keyed streams; a math/rand source per NI to draw them from (64 of
// 4.9 KB, built at a node's first packet) made it 0.553 MB.
func TestMeasureAllocBudget(t *testing.T) {
	cfg := config.Default()
	cfg.PretrainCycles = 0
	cfg.WarmupCycles = 100
	cfg.MaxCycles = 3000
	cfg.Fault.BaseErrorRate = 0
	topo, err := topologyOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := traffic.Synthetic(topo, traffic.Uniform, 0.02, cfg.FlitsPerPacket, int64(cfg.MaxCycles), 7)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(cfg, StaticScheme(network.Mode2))
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	mb := allocatedMB(func() {
		if res, err = sim.Measure(events, "allocs"); err != nil {
			t.Fatal(err)
		}
	})
	if !res.Drained {
		t.Fatal("the measure did not drain; the budget would cover a truncated run")
	}
	if mb > 0.28 {
		t.Errorf("an 8x8 static-mode-2 measure of %d packets allocated %.3f MB, budget 0.28 MB", len(events), mb)
	}
}

// TestRestoreBuildsOnlyWhatTheRunTouches: a restore builds the fabric and
// decodes the state, and nothing the resumed run has not yet asked for. No
// RNG source is seeded before its first draw (64 of them, one per agent,
// 4.9 KB and a 607-word seeding each; packet payloads need none), no
// controller is consulted for cycle-0 modes the decode overwrites, and the
// injector holds only the trace events still to be issued. Re-encoding the
// restored sim without a Step gives back the checkpoint's bytes, so none
// of that is visible in the state.
func TestRestoreBuildsOnlyWhatTheRunTouches(t *testing.T) {
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
	var cp *Checkpoint
	sim.SetObserver(1500, func(Snapshot) {
		if cp == nil {
			if cp, err = sim.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if _, err := sim.Measure(events, "restore"); err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("run ended before the checkpoint")
	}

	var restored *Sim
	mb := allocatedMB(func() {
		if restored, err = cp.Sim(); err != nil {
			t.Fatal(err)
		}
	})
	total, built := countingSources(reflect.ValueOf(restored))
	if want := cfg.Routers(); total != want {
		t.Fatalf("walk found %d RNG sources, want %d (an agent per router)", total, want)
	}
	if built != 0 {
		t.Errorf("restore materialized %d of %d RNG sources before any draw", built, total)
	}
	if in := restored.ms.in; len(in.events) != in.remaining || len(in.events) >= len(events) {
		t.Errorf("the restored injector holds %d events for %d pending of a %d-event trace; want the pending ones only",
			len(in.events), in.remaining, len(events))
	}
	// 1.25x the 0.555 MB measured when this budget was set: the 8x8 fabric,
	// the Q-table rows the run touched (streamed as rows), the pending half
	// of the trace and the codec. Streaming the table in its dense form made
	// it 0.565 MB; decoding and indexing the whole trace, with 96-byte input
	// VCs, 0.709 MB; seeding all 128 sources of the time, consulting the
	// controller at cycle 0 and copying the trace into the injector,
	// 2.21 MB; decoding a dense 0.8 MB table and a fresh 64 KiB stream
	// buffer, 1.45 MB.
	if mb > 0.69 {
		t.Errorf("restoring an 8x8 rl checkpoint allocated %.3f MB, budget 0.69 MB", mb)
	}
	var buf bytes.Buffer
	if err := restored.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), cp.stream) {
		t.Errorf("re-encoding the restored sim gave %d bytes differing from the checkpoint's %d", buf.Len(), len(cp.stream))
	}
}

// countingSources walks everything reachable from v and counts the
// snap.CountingSources it holds, and how many have built their math/rand
// source.
func countingSources(v reflect.Value) (total, built int) {
	type key struct {
		addr uintptr
		typ  reflect.Type
	}
	seen := map[key]bool{}
	source := reflect.TypeOf(snap.CountingSource{})
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			k := key{v.Pointer(), v.Type()}
			if v.IsNil() || seen[k] {
				return
			}
			seen[k] = true
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			if v.Type() == source {
				total++
				if !v.FieldByName("src").IsNil() {
					built++
				}
				return
			}
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Array, reflect.Slice:
			if k := v.Type().Elem().Kind(); k <= reflect.Complex128 || k == reflect.String {
				return // scalars hold no sources
			}
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Value())
			}
		}
	}
	walk(v)
	return total, built
}

// TestInjectorOneSlab: the injector holds the trace it is handed (possibly
// shared) without copying it, and its per-source queues are index lists
// in trace order, carved from one slab sized by a counting pass.
func TestInjectorOneSlab(t *testing.T) {
	events := []traffic.Event{
		{Cycle: 0, Src: 2, Dst: 0, Flits: 1},
		{Cycle: 1, Src: 0, Dst: 1, Flits: 4},
		{Cycle: 1, Src: 2, Dst: 3, Flits: 4},
		{Cycle: 5, Src: 2, Dst: 1, Flits: 1},
		{Cycle: 9, Src: 0, Dst: 3, Flits: 4},
	}
	in := newInjector(events, 4, 2, 100)
	if &in.events[0] != &events[0] {
		t.Fatal("the injector copied the trace instead of holding it")
	}
	want := [][]int32{{1, 4}, nil, {0, 2, 3}, nil}
	for src, q := range in.queues {
		if len(q) != len(want[src]) || cap(q) != len(q) {
			t.Fatalf("source %d: queue len %d cap %d, want len=cap=%d", src, len(q), cap(q), len(want[src]))
		}
		for i := range q {
			if q[i] != want[src][i] {
				t.Fatalf("source %d entry %d = %d, want %d", src, i, q[i], want[src][i])
			}
		}
	}
	if in.remaining != len(events) {
		t.Fatalf("remaining = %d", in.remaining)
	}
	if in.due[0] != 101 || in.due[1] != never || in.due[2] != 100 {
		t.Fatalf("due = %v, want the head events' absolute cycles", in.due)
	}
	big := make([]traffic.Event, 50_000)
	for i := range big {
		big[i] = traffic.Event{Cycle: int64(i), Src: i % 64, Dst: (i + 1) % 64, Flits: 4}
	}
	if allocs := testing.AllocsPerRun(3, func() { newInjector(big, 64, 4, 0) }); allocs > 6 {
		t.Errorf("newInjector made %.0f allocations for 64 queues; want one slab, not a grown slice per source", allocs)
	}
	// 4 bytes an event plus the per-source vectors and size-class rounding;
	// a copy of the trace is 32 bytes an event.
	budget := float64(5*len(big)) / (1 << 20)
	if mb := allocatedMB(func() { newInjector(big, 64, 4, 0) }); mb > budget {
		t.Errorf("newInjector allocated %.3f MB for %d events, budget %.3f MB", mb, len(big), budget)
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
