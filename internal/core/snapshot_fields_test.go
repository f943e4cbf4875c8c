package core

// The executable "not serialized" list (DESIGN.md §15). A loaded sim is
// stopped mid-run inside the kill schedule, snapshotted and restored, and
// every field reachable from the two — Network, Router, inputVC,
// outputPort, NI, stats.Collector, power.Meter, thermal.Grid, rl.Agent,
// RLController, RLPortController, DTController and its dt.Tree,
// measureState and all they point at — is compared by reflection, a
// Q-table state by state. A field
// may differ only if the unsnapshotted table names it and says why; a
// table entry that names no field the walk reached fails too, so the list
// cannot rot.

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"rlnoc/internal/rl"
	"rlnoc/internal/traffic"
)

// unsnapshotted lists every field the snapshot stream does not carry, as
// "package.Type.field", with the reason it need not. A rebuilt field is
// recomputed exactly by the decoding walk and is still compared; the rest
// may differ between the live sim and its restored twin and are skipped.
var unsnapshotted = map[string]struct {
	rebuilt bool
	why     string
}{
	// Derived: recomputed from the fields a decode did read.
	"network.Router.routeMask":       {true, "requestMasks() over the decoded VC route fields"},
	"network.Router.vaWait":          {true, "requestMasks() over the decoded VC route fields"},
	"network.outputPort.pendingFree": {true, "countPendingFree() over the decoded vcPendingFree"},
	"network.Network.topo":           {true, "route tables: Reroute over the decoded dead-port flags, its unreachable-pair count cross-checked against the stream's"},
	"network.qrouteState.dist":       {true, "the fabric's SurvivingDistances over the decoded dead-port flags"},
	"core.measureState.in":           {true, "per-source queues rebuilt from the decoded trace; the cursors are decoded into them"},
	"core.injector.due":              {true, "sync() over the decoded heads and base"},
	"network.Router.saAttn":          {true, "saAttention() over the decoded resend cursors and modes"},
	"network.Router.wirePorts":       {false, "port summary: refilled conservatively (every port); a spurious bit is a no-op port visit that clears it"},
	"network.Network.hardSched":      {true, "reparsed from the Config the stream embeds"},
	"network.Network.wireActive":     {false, "activity set: refilled conservatively (every live router); a spurious member is a no-op visit with no draws and no meter charges"},
	"network.Network.niActive":       {false, "activity set: as wireActive"},
	"network.Network.pipeActive":     {false, "activity set: as wireActive"},

	// Lazy RNG sources: a CountingSource's state is its seed and draw count
	// (both compared); the math/rand source behind them is built and
	// replayed to the count on the first draw, so a restored twin holds none
	// until its run draws.
	"snap.CountingSource.src": {false, "lazy source: materialized on the first draw, replayed to the decoded draw count"},

	// Stream cursors: every detrand stream is rekeyed lazily on first use
	// each cycle, so a stale cursor (-1) is exact at a cycle boundary.
	"network.outputPort.rng":       {false, "stream cursor: rekeyed from (seed, link, cycle) on first use"},
	"network.outputPort.rngCycle":  {false, "stream cursor: left stale (-1) to force the rekey"},
	"network.qrouteState.rng":      {false, "stream cursor: rekeyed from (seed, router, cycle) on first use"},
	"network.qrouteState.rngCycle": {false, "stream cursor: left stale (-1) to force the rekey"},

	// Pools and free lists: invisible to results (Get fully resets a
	// recycled object).
	"network.Network.fpool":   {false, "pool: flit free list and counters"},
	"network.Network.pktPool": {false, "pool: packet free list and counters"},
	"network.NI.reasmFree":    {false, "pool: emptied reassembly buffers"},

	// Scratch: dead between cycles.
	"network.Router.inputUsed":        {false, "scratch: cleared by switchAllocate before every use"},
	"network.Network.scratchPowers":   {false, "scratch: overwritten by thermalStep before every use"},
	"network.Network.epochLats":       {false, "scratch: overwritten by controlEpoch before every use"},
	"network.Network.epochPowers":     {false, "scratch: overwritten by controlEpoch before every use"},
	"network.Network.epochCtrlPowers": {false, "scratch: overwritten by controlEpoch before every use"},
	"network.outputPort.winUtil":      {false, "scratch: error-model input pinned by a boundary capture; encoding materializes errProb first, after which it is dead"},
	"network.outputPort.winRelaxed":   {false, "scratch: as winUtil"},
	"thermal.Grid.scratch":            {false, "scratch: solver workspace, overwritten by every Step"},

	// Sparse Q-table layout: the slab holds rows in first-touch order, and
	// a decode appends them in state order. The walk compares every
	// state's row through the index instead (fieldDiff.table).
	"rl.Table.index": {false, "slab layout: row positions; compared as each state's row"},
	"rl.Table.rows":  {false, "slab layout: row order; compared as each state's row"},

	// Memo caches: deterministic functions of their inputs.
	"network.Network.ftab": {false, "memo cache: the fault kernel per link on exact (temp, util) keys"},

	// Diagnostics, attached per process and never read by the simulation.
	"network.Network.ering": {false, "diagnostic event ring (RLNOC_CHECKS), observational"},
}

func TestSnapshotCoversEveryField(t *testing.T) {
	cfg := snapConfig("mesh")
	cfg.Fault.BaseErrorRate = 0.01
	topo, err := topologyOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Heavier than snapTrace, so VC buffers, wires, ARQ retransmission
	// buffers and NI queues all hold state at the comparison point.
	events, err := traffic.Synthetic(topo, traffic.Uniform, 0.02, cfg.FlitsPerPacket,
		int64(cfg.MaxCycles), cfg.Seed*31+1300)
	if err != nil {
		t.Fatal(err)
	}
	// qroute reaches every field of the fabric and the RL controller, and
	// rl-per-port those of the per-channel one. The DT controller has two
	// lives and is compared in both: trained by pre-training, and —
	// measured without it — still collecting, its exploration stream
	// advanced and every router's sample pending.
	listed := map[string]bool{}
	for _, arm := range []struct {
		name     string
		scheme   Scheme
		pretrain bool
	}{
		{"qroute", SchemeQRoute, true},
		{"rl-per-port", SchemeRLPerPort, true},
		{"dt-trained", SchemeDT, true},
		{"dt-collecting", SchemeDT, false},
	} {
		t.Run(arm.name, func(t *testing.T) {
			cfg := cfg
			if arm.scheme == SchemeDT {
				// Eight control epochs inside the 800-cycle pre-training: enough
				// labeled samples for the tree to split.
				cfg.RL.StepCycles = 100
			}
			sim, err := NewSim(cfg, arm.scheme)
			if err != nil {
				t.Fatal(err)
			}
			if arm.pretrain {
				if err := sim.Pretrain(); err != nil {
					t.Fatal(err)
				}
			}
			if c, ok := sim.Controller().(*DTController); ok {
				if trained := c.Tree() != nil; trained != arm.pretrain {
					t.Fatalf("DT controller trained = %v, want %v", trained, arm.pretrain)
				}
				if arm.pretrain && c.Tree().Nodes() < 3 {
					t.Fatalf("trained tree is a single leaf; the comparison would cover no split")
				}
			}
			// The observer fires between cycles, where a checkpoint would be
			// taken; 3300 lies between the link kill (2600) and the router kill
			// (4200) of the measured phase.
			base, compared := sim.Network().Cycle(), false
			sim.SetObserver(100, func(s Snapshot) {
				if compared || s.Cycle < base+3300 {
					return
				}
				compared = true
				if s.DataInFlight == 0 {
					t.Errorf("cycle %d: nothing in flight; the comparison would cover empty containers", s.Cycle)
				}
				if c, ok := sim.Controller().(*DTController); ok && !arm.pretrain && c.Samples() == 0 {
					t.Errorf("cycle %d: no samples collected; the comparison would cover an empty training set", s.Cycle)
				}
				var buf bytes.Buffer
				if err := sim.WriteSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				restored, err := RestoreSim(&buf)
				if err != nil {
					t.Fatal(err)
				}
				d := &fieldDiff{t: t, seen: map[[2]uintptr]bool{}, listed: listed}
				d.walk("net", reflect.ValueOf(sim.net), reflect.ValueOf(restored.net)) // and, through it, the controller
				d.walk("ms", reflect.ValueOf(sim.ms), reflect.ValueOf(restored.ms))
				if d.compared < 10_000 {
					t.Errorf("only %d leaf values compared; the walk is not reaching the fabric", d.compared)
				}
			})
			if _, err := sim.Measure(events, "fields"); err != nil {
				t.Fatal(err)
			}
			if !compared {
				t.Fatal("run ended before the comparison cycle")
			}
		})
	}
	for field := range unsnapshotted {
		if !listed[field] {
			t.Errorf("unsnapshotted lists %s, which the comparison never reached: stale entry", field)
		}
	}
}

// fieldDiff walks two values of the same type in lockstep.
type fieldDiff struct {
	t        *testing.T
	seen     map[[2]uintptr]bool // pointer pairs already compared (the graph has cycles)
	listed   map[string]bool     // unsnapshotted entries met
	compared int
	reported int
}

func (d *fieldDiff) differ(path, format string, args ...any) {
	if d.reported++; d.reported <= 20 {
		d.t.Errorf("%s: %s — snapshot it, or list it in unsnapshotted with the reason it may differ",
			path, fmt.Sprintf(format, args...))
	}
}

func (d *fieldDiff) walk(path string, a, b reflect.Value) {
	if a.Kind() != b.Kind() || (a.IsValid() && a.Type() != b.Type()) {
		d.differ(path, "live holds a %v, restored a %v", a, b)
		return
	}
	switch a.Kind() {
	case reflect.Invalid:
	case reflect.Bool:
		d.leaf(path, a.Bool() == b.Bool(), a, b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.leaf(path, a.Int() == b.Int(), a, b)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		d.leaf(path, a.Uint() == b.Uint(), a, b)
	case reflect.Float32, reflect.Float64:
		d.leaf(path, math.Float64bits(a.Float()) == math.Float64bits(b.Float()), a, b)
	case reflect.String:
		d.leaf(path, a.String() == b.String(), a, b)
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		d.leaf(path, a.IsNil() == b.IsNil(), a, b)
	case reflect.Interface:
		if a.IsNil() != b.IsNil() {
			d.differ(path, "nil on one side only")
			return
		}
		d.walk(path, a.Elem(), b.Elem())
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			d.differ(path, "nil on one side only")
			return
		}
		pair := [2]uintptr{a.Pointer(), b.Pointer()}
		if a.IsNil() || d.seen[pair] {
			return
		}
		d.seen[pair] = true
		d.walk(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().String() + "." + a.Type().Field(i).Name
			if u, ok := unsnapshotted[name]; ok {
				d.listed[name] = true
				if !u.rebuilt {
					continue
				}
			}
			d.walk(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))
		}
		if a.Type() == reflect.TypeFor[rl.Table]() {
			d.table(path, a, b)
		}
	case reflect.Array, reflect.Slice:
		// A nil slice and an empty one are the same state.
		if a.Len() != b.Len() {
			d.differ(path, "length %d live, %d restored", a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			d.walk(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			d.differ(path, "%d entries live, %d restored", a.Len(), b.Len())
			return
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				d.differ(path, "key %v missing from the restored map", it.Key())
				continue
			}
			d.walk(fmt.Sprintf("%s[%v]", path, it.Key()), it.Value(), bv)
		}
	default:
		d.differ(path, "unhandled kind %v", a.Kind())
	}
}

// table compares two Q-tables as what they hold: each state's row, read
// through the index, so an untouched state reads the zero row.
func (d *fieldDiff) table(path string, a, b reflect.Value) {
	ai, ar := a.FieldByName("index"), a.FieldByName("rows")
	bi, br := b.FieldByName("index"), b.FieldByName("rows")
	for s := 0; s < ai.Len(); s++ {
		d.walk(fmt.Sprintf("%s.state[%d]", path, s), ar.Index(int(ai.Index(s).Uint())), br.Index(int(bi.Index(s).Uint())))
	}
}

func (d *fieldDiff) leaf(path string, equal bool, a, b reflect.Value) {
	d.compared++
	if !equal {
		d.differ(path, "%v live, %v restored", a, b)
	}
}
