package core

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

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
		t.Errorf("restore built the history of %d of %d RNG sources before any draw", built, total)
	}
	if in := restored.ms.in; in.remaining == 0 || in.remaining >= len(events) || streamBytes(in) > 4*in.remaining {
		t.Errorf("the restored injector holds %d stream bytes for %d pending of a %d-event trace; want the pending ones only, packed",
			streamBytes(in), in.remaining, len(events))
	}
	// 1.25x the 0.484 MB measured when this budget was set: the 8x8 fabric,
	// the Q-table rows the run touched (streamed as rows), the pending half
	// of the trace as packed streams and the codec. Decoding the pending
	// events and indexing them made it 0.555 MB; streaming the table in its
	// dense form, 0.565 MB; decoding and indexing the whole trace, with
	// 96-byte input VCs, 0.709 MB; seeding all 128 sources of the time,
	// consulting the controller at cycle 0 and copying the trace into the
	// injector, 2.21 MB; decoding a dense 0.8 MB table and a fresh 64 KiB
	// stream buffer, 1.45 MB.
	if mb > 0.605 {
		t.Errorf("restoring an 8x8 rl checkpoint allocated %.3f MB, budget 0.605 MB", mb)
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
// snap.CountingSources it holds, and how many hold history (values
// computed at a draw).
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
				if !v.FieldByName("hist").IsNil() {
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

// streamBytes is the length of in's unread streams.
func streamBytes(in *injector) int {
	n := 0
	for _, st := range in.streams {
		n += len(st)
	}
	return n
}

// TestInjectorOneSlab: the injector packs each source's events into one
// stream of uvarints — cycle delta from the source's previous event,
// destination, flit count — cut from a slab sized by a first pass, and
// holds no copy of the trace.
func TestInjectorOneSlab(t *testing.T) {
	events := []traffic.Event{
		{Cycle: 0, Src: 2, Dst: 0, Flits: 1},
		{Cycle: 1, Src: 0, Dst: 1, Flits: 4},
		{Cycle: 1, Src: 2, Dst: 3, Flits: 4},
		{Cycle: 5, Src: 2, Dst: 1, Flits: 1},
		{Cycle: 200, Src: 0, Dst: 3, Flits: 4},
	}
	in := newInjector(4, 2, 100)
	in.pack(events)
	// Source 0's second delta, 199, takes two bytes: 0x80|(199&0x7f), 1.
	want := [][]byte{{1, 1, 4, 199, 1, 3, 4}, nil, {0, 0, 1, 1, 3, 4, 4, 1, 1}, nil}
	for src, st := range in.streams {
		if !bytes.Equal(st, want[src]) || cap(st) != len(st) {
			t.Fatalf("source %d: stream %v (cap %d), want %v with len=cap", src, st, cap(st), want[src])
		}
	}
	if unsafe.SliceData(in.streams[2]) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(in.streams[0])), 7)) {
		t.Fatal("the streams are not consecutive windows on one slab")
	}
	if in.remaining != len(events) {
		t.Fatalf("remaining = %d", in.remaining)
	}
	if in.due[0] != 101 || in.due[1] != never || in.due[2] != 100 || in.due[3] != never {
		t.Fatalf("due = %v, want the head events' absolute cycles", in.due)
	}
	for _, want := range []struct {
		dst, flits int
		due        int64
	}{{0, 1, 101}, {3, 4, 105}, {1, 1, never}} {
		if dst, flits := in.issue(2); dst != want.dst || flits != want.flits || in.due[2] != want.due {
			t.Fatalf("issued (%d, %d) with the next due at %d, want (%d, %d) and %d",
				dst, flits, in.due[2], want.dst, want.flits, want.due)
		}
	}
	if in.remaining != 2 || in.at[2] != 5 {
		t.Fatalf("remaining %d, source 2's cycle base %d; want 2 and 5", in.remaining, in.at[2])
	}

	big := make([]traffic.Event, 50_000)
	for i := range big {
		big[i] = traffic.Event{Cycle: int64(i), Src: i % 64, Dst: (i + 1) % 64, Flits: 4}
	}
	pack := func() *injector {
		in := newInjector(64, 4, 0)
		in.pack(big)
		return in
	}
	if n := streamBytes(pack()); n != 3*len(big) {
		t.Errorf("a trace of one-byte deltas, destinations and flit counts packed to %d bytes for %d events, want 3 each", n, len(big))
	}
	if allocs := testing.AllocsPerRun(3, func() { pack() }); allocs > 5 {
		t.Errorf("packing made %.0f allocations for 64 streams; want one slab, not a grown slice per source", allocs)
	}
	// 3 bytes an event plus the per-source vectors and size-class rounding;
	// the index lists this replaced took 4 bytes an event, a copy of the
	// trace 32.
	budget := float64(4*len(big)) / (1 << 20)
	if mb := allocatedMB(func() { pack() }); mb > budget {
		t.Errorf("packing allocated %.3f MB for %d events, budget %.3f MB", mb, len(big), budget)
	}
}

// TestSnapshotAllocBudget: encoding a checkpoint allocates per snapshot —
// one codec, the packet intern table, the sorted keys of each non-empty
// map — never per router, packet or reference. A walk-local that escapes (a
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
