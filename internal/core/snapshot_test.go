package core

// Checkpoint/restore equivalence (DESIGN.md §15): a run that is
// snapshotted mid-measurement and resumed in a fresh Sim must finish
// with byte-identical results — across topologies and learned schemes,
// and with the restore point inside an active hard-fault kill schedule.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/flit"
	"rlnoc/internal/network"
	"rlnoc/internal/rl"
	"rlnoc/internal/snap"
	"rlnoc/internal/topology"
	"rlnoc/internal/traffic"
)

// snapConfig is a fast 4x4 run whose hard-fault schedule (a link kill
// then a router kill) lands inside the measured phase, so checkpoints
// straddle the kill boundary.
func snapConfig(topo string) config.Config {
	cfg := config.Small()
	cfg.Topology = topo
	if topo == config.TopologyTorus {
		// qroute on a torus needs escape/adaptive x dateline VC classes.
		cfg.VCsPerPort = 8
	}
	cfg.PretrainCycles = 800
	cfg.WarmupCycles = 300
	cfg.MaxCycles = 4000
	cfg.DrainCycles = 12000
	cfg.Fault.BaseErrorRate = 0.002
	cfg.HardFaults = "2600:l5.east,4200:r10"
	cfg.Seed = 20260808
	// Ignored by the simulator, but the embedded config JSON carries it,
	// and snapshotBytesPins were captured with it set.
	cfg.StepWorkers = 1
	return cfg
}

func snapTrace(t *testing.T, cfg config.Config) []traffic.Event {
	t.Helper()
	topo, err := topologyOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := traffic.Synthetic(topo, traffic.Uniform, 0.004, cfg.FlitsPerPacket,
		int64(cfg.MaxCycles), cfg.Seed*31+1300)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// fingerprint renders everything the acceptance criteria compare: the
// serialized Result and the closing conservation ledger.
func fingerprint(t *testing.T, res Result, sim *Sim) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n" + sim.Network().ConservationLedger().String()
}

// runFull runs pretrain+measure, optionally checkpointing every
// snapEvery cycles into dir.
func runFull(t *testing.T, cfg config.Config, scheme Scheme, events []traffic.Event,
	dir string, snapEvery int64) string {
	t.Helper()
	sim, err := NewSim(cfg, scheme)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Pretrain(); err != nil {
		t.Fatal(err)
	}
	if snapEvery > 0 {
		sim.SetSnapshotPolicy(dir, snapEvery)
	}
	res, err := sim.Measure(events, "snaptest")
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(t, res, sim)
}

// snapshotCycles lists the checkpoint files in dir with their cycle
// numbers, ascending.
func snapshotCycles(t *testing.T, dir string) (paths []string, cycles []int64) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "snapshot-*.rlns"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no snapshots written in %s: %v", dir, err)
	}
	sort.Strings(matches)
	for _, m := range matches {
		var c int64
		if _, err := fmt.Sscanf(filepath.Base(m), "snapshot-%d.rlns", &c); err != nil {
			t.Fatalf("unparseable snapshot name %s", m)
		}
		paths = append(paths, m)
		cycles = append(cycles, c)
	}
	return paths, cycles
}

// resumeFrom restores path and runs the phase to completion.
func resumeFrom(t *testing.T, path string) string {
	t.Helper()
	sim, err := RestoreSimFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.ResumeMeasure()
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(t, res, sim)
}

// TestSnapshotRestoreEquivalence is the acceptance matrix: mesh and
// torus, rl and qroute, including a restore point between the two
// scheduled hard-fault kills.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	type combo struct {
		topo   string
		scheme Scheme
	}
	combos := []combo{
		{"mesh", SchemeRL},
		{"mesh", SchemeQRoute},
		{"torus", SchemeRL},
		{"torus", SchemeQRoute},
	}
	if testing.Short() {
		combos = combos[:1]
	}
	for _, c := range combos {
		c := c
		t.Run(fmt.Sprintf("%s-%s", c.topo, c.scheme), func(t *testing.T) {
			t.Parallel()
			cfg := snapConfig(c.topo)
			events := snapTrace(t, cfg)

			want := runFull(t, cfg, c.scheme, events, "", 0)

			dir := t.TempDir()
			got := runFull(t, cfg, c.scheme, events, dir, 400)
			if got != want {
				t.Fatalf("snapshotting perturbed the run:\n got %s\nwant %s", got, want)
			}

			paths, cycles := snapshotCycles(t, dir)
			// One restore point between the two kills (2600, 4200) —
			// dead link applied, router kill still pending — and one
			// after both, plus the earliest checkpoint.
			var midKill, afterKill string
			for i, cyc := range cycles {
				if cyc > 2600 && cyc < 4200 && midKill == "" {
					midKill = paths[i]
				}
				if cyc > 4200 && afterKill == "" {
					afterKill = paths[i]
				}
			}
			if midKill == "" || afterKill == "" {
				t.Fatalf("kill schedule not straddled by checkpoints (cycles %v)", cycles)
			}
			for name, p := range map[string]string{
				"first": paths[0], "mid-kill": midKill, "after-kill": afterKill,
			} {
				if got := resumeFrom(t, p); got != want {
					t.Errorf("%s restore diverged:\n got %s\nwant %s", name, got, want)
				}
			}
		})
	}
}

// TestSnapshotResumesHeldSource checkpoints a run whose sources are
// throttled by SourceWindow back-pressure: a held head event is due in the
// past, and the injector's due vector — derived state the stream does not
// carry — must come back saying so, or the resumed run would release the
// source on a different cycle. Every checkpoint resumes to the
// uninterrupted run's bytes, and at least one must actually catch a
// source held.
func TestSnapshotResumesHeldSource(t *testing.T) {
	cfg := snapConfig("mesh")
	cfg.HardFaults = ""
	cfg.SourceWindow = 1
	topo, err := topologyOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := traffic.Synthetic(topo, traffic.Uniform, 0.02, cfg.FlitsPerPacket,
		int64(cfg.MaxCycles), cfg.Seed*31+1300)
	if err != nil {
		t.Fatal(err)
	}
	want := runFull(t, cfg, SchemeRL, events, "", 0)
	dir := t.TempDir()
	if got := runFull(t, cfg, SchemeRL, events, dir, 900); got != want {
		t.Fatalf("snapshotting perturbed the run:\n got %s\nwant %s", got, want)
	}
	paths, _ := snapshotCycles(t, dir)
	held := 0
	for _, p := range paths {
		sim, err := RestoreSimFile(p)
		if err != nil {
			t.Fatal(err)
		}
		in, now := sim.ms.in, sim.net.Cycle()
		for src, due := range in.due {
			if due != in.headDue(src) {
				t.Errorf("%s: restored due[%d] = %d, head event says %d", filepath.Base(p), src, due, in.headDue(src))
			}
			// The checkpoint follows the Step that ended cycle now-1's
			// iteration: a head due before now was offered and refused.
			if due < now && sim.net.SourceOutstanding(src) >= cfg.SourceWindow {
				held++
			}
		}
		if got := resumeFrom(t, p); got != want {
			t.Errorf("%s: resumed run diverged:\n got %s\nwant %s", filepath.Base(p), got, want)
		}
	}
	if held == 0 {
		t.Fatalf("no source was held by back-pressure at any of %d checkpoints", len(paths))
	}
}

// TestSnapshotIdempotent re-snapshots a restored sim without stepping it
// and requires the bytes to match the original checkpoint — the
// encoding walk covers exactly the state the decoding walk reproduces.
func TestSnapshotIdempotent(t *testing.T) {
	cfg := snapConfig("mesh")
	events := snapTrace(t, cfg)
	dir := t.TempDir()
	runFull(t, cfg, SchemeQRoute, events, dir, 700)
	paths, _ := snapshotCycles(t, dir)
	orig, err := os.ReadFile(paths[len(paths)/2])
	if err != nil {
		t.Fatal(err)
	}
	sim, err := RestoreSim(bytes.NewReader(orig))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, buf.Bytes()) {
		t.Fatalf("re-snapshot differs: %d vs %d bytes", len(orig), len(buf.Bytes()))
	}
}

// TestCheckpointBytesBudget keeps learned state out of a checkpoint
// unless it exists: a Q-table writes the rows a run touched, not its
// 10,000 states, and a trained DT controller no training set. Budgets are
// 1.25x the sizes measured once the qroute section left the embedded
// config (23,343, 31,917 and 24,564 bytes with it; 23,567, 32,141 and
// 24,788 bytes with the model constants too, at format 11, which
// writes each flit inline; 25,687, 34,293 and 26,908 bytes at format 10;
// as 32-byte events 33,676, 42,739 and 35,616; the dense table made the
// 4x4 mesh rl and qroute checkpoints 833,397 and 842,546 bytes, and with
// a table per router 12,833,653).
func TestCheckpointBytesBudget(t *testing.T) {
	for _, arm := range []struct {
		name     string
		scheme   Scheme
		shared   bool
		measured int
	}{
		{"rl", SchemeRL, true, 23_264},
		{"qroute", SchemeQRoute, true, 31_823},
		{"rl-table-per-router", SchemeRL, false, 24_485},
	} {
		cfg := snapConfig("mesh")
		cfg.RL.SharedTable = arm.shared
		sim, err := NewSim(cfg, arm.scheme)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Pretrain(); err != nil {
			t.Fatal(err)
		}
		var cp *Checkpoint
		sim.SetObserver(2000, func(Snapshot) {
			if cp == nil {
				if cp, err = sim.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		})
		if _, err := sim.Measure(snapTrace(t, cfg), "budget"); err != nil {
			t.Fatal(err)
		}
		if cp == nil {
			t.Fatalf("%s: run ended before the checkpoint", arm.name)
		}
		if budget := arm.measured * 5 / 4; len(cp.stream) > budget {
			t.Errorf("%s: a mid-measure checkpoint is %d bytes, budget %d", arm.name, len(cp.stream), budget)
		}
	}

	// The DT arm at the end of pre-training: still collecting, then
	// trained. Fitting the tree drops the training set from the stream.
	cfg := snapConfig("mesh")
	cfg.RL.StepCycles = 100
	sim, err := NewSim(cfg, SchemeDT)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.pretrainTraffic(); err != nil {
		t.Fatal(err)
	}
	collecting, err := sim.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	c := sim.Controller().(*DTController)
	if len(c.samples) == 0 {
		t.Fatal("pre-training collected no samples")
	}
	if err := c.FinishTraining(); err != nil {
		t.Fatal(err)
	}
	trained, err := sim.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(trained.stream) >= len(collecting.stream) {
		t.Errorf("a trained DT's pre-train checkpoint is %d bytes, the collecting one %d: the training set is still in it",
			len(trained.stream), len(collecting.stream))
	}
}

// snapshotBytesPins holds, per arm, the SHA-256 over every checkpoint
// file (ascending cycle, scheme by scheme) of a snapConfig run. The mesh
// rl+qroute pin was captured from the element-by-element codec before
// internal/snap moved slices and trace events in chunks; the torus arm
// (dateline VC classes, 8 VCs per port) and the arq-ecc arm (static
// controller, the SCTL section) were captured on the last commit that
// still had a separate Writer and Reader. A codec change must reproduce
// all three: that is what "the format did not change" means, and it is
// what lets a build restore the checkpoints its predecessor wrote. A pin
// legitimately moves when the snapshotted state itself changes (a new
// Config field, a new stateful subsystem, a model change) — re-capture
// it in that commit and say so. All three were re-captured when
// pipeline_depth and output_buffer left Config: every checkpoint stayed
// byte-equal to the previous one after the CORE section's embedded config
// JSON, which lost exactly those two keys. All three were re-captured for
// format version 2 (snap.Version): packets with keyed payload words and
// no NI draw counts, input VCs as ring head, count and flits, the
// mode2-dup drop counter, and only the pending trace events. All three
// were re-captured for format version 3: a Q-table as its touched rows,
// and a trained DT controller without its training set (the arq-ecc arm
// moved only by the version word). All three were re-captured for format
// version 4, which drops the write-only words: each equals the previous
// build's stream with exactly those words left out of the walk. All three
// were re-captured for format version 5: each equals the previous build's
// stream but for the version word and the pending trace, now each
// source's packed stream and cycle base. All three were re-captured when
// freeze_after_pretrain left RLConfig: the previous build with only that
// key removed writes the same three streams. All three were re-captured
// for format version 6, which moves the control epoch's window from the
// STAT section's per-router vectors to the router walk and drops the
// words the ports already count: the previous build writing that layout,
// and clearing a dead router's port counters each epoch as this one
// does, writes the same three streams. All three were re-captured for
// format version 7, which writes the energy meter as one count matrix
// (the link column last, in tile pitches) and its copy at the last
// window reset, qroute's counters as scalars, and no controller visit
// map or agent update count: the previous build writing that layout
// from its own state writes the same three streams. All three were
// re-captured for format version 8, when alpha, alpha_decay and double_q
// left RLConfig and the Q-table its Double-Q flag: the previous build
// with only those keys, that byte and the version word changed writes
// the same three streams. The mesh and torus pins were re-captured, still
// at format 8, when a flit sent with ECC off stopped raising an ACK (it
// had no retransmission entry to pop): the previous build, dropping at
// encode time each queued ACK that names no buffered entry, writes the
// same streams. The arq-ecc arm never sends with ECC off and did not move.
// All three were re-captured for format version 9, when a Q-table row
// lost its reward sums, the statistics their network-latency sum and a
// trained DT controller its fitted-sample count: the previous build
// writing none of those words, with the version word changed, writes the
// same three streams. All three were re-captured for format version 10,
// when a buffered flit lost its readiness cycle and the link epoch
// counters moved from the ports to the router: the previous build writing
// no ready word and, after each router's NACKs-out word, its ports' three
// epoch counters summed, with the version word changed, writes the same
// three streams. All three were re-captured for format version 11, when
// the flit table gave way to flits written inline at their one home and
// a port's credits and VC flags to a credit byte per VC and two 16-bit
// masks: each checkpoint shrank by exactly 8 bytes per live flit (its
// reference), 8 for the FLTS tag and count, and 4 + 9 bytes per VC for
// each port (2,048 bytes on the 4x4 mesh, 4,928 on the 8-VC torus).
// All three were re-captured, still at format 11, when twelve model
// constants stopped being config keys: every checkpoint's embedded config
// JSON lost those keys and nothing else, so each file is exactly 224
// bytes shorter and every byte outside that JSON is the same. All three
// were re-captured, still at format 11, when the Q-routing knobs became
// constants and the qroute section left the embedded config JSON: each
// file is exactly the 79 bytes of
// "qroute":{"alpha":0.3,"epsilon":0.05,"congestion_weight":4,"escape_timeout":8},
// shorter (94 for a qroute checkpoint, whose section also carried
// "enabled":true,), and every other byte is the same.
var snapshotBytesPins = []struct {
	name, topo string
	schemes    []Scheme
	sha        string
}{
	{"mesh", "mesh", []Scheme{SchemeRL, SchemeQRoute}, "a8ea8264928c0cb54b91f77e9d3a8df5e104b67d9da8e4747a3b675cc8849da1"},
	{"torus", "torus", []Scheme{SchemeRL, SchemeQRoute}, "8d4873c10d12a0010a2c0fa87753f3adafa80aadaf0e05ded6978eeb0e72fe81"},
	{"mesh-arq-ecc", "mesh", []Scheme{SchemeARQ}, "ee19baa3ef5cfadeb165219f7eafa2bc080b716782e50ffe30a4c8da70ea4de6"},
}

func TestSnapshotBytesPin(t *testing.T) {
	for _, arm := range snapshotBytesPins {
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			t.Parallel()
			cfg := snapConfig(arm.topo)
			events := snapTrace(t, cfg)
			h := sha256.New()
			files := 0
			for _, scheme := range arm.schemes {
				dir := t.TempDir()
				runFull(t, cfg, scheme, events, dir, 700)
				paths, _ := snapshotCycles(t, dir)
				for _, p := range paths {
					b, err := os.ReadFile(p)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(b)
					files++
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != arm.sha {
				t.Errorf("checkpoint bytes changed: sha256 over %d files = %s, pinned %s", files, got, arm.sha)
			}
		})
	}
}

// FuzzSnapshotRoundTrip drives short runs from fuzzed knobs and checks
// the restore→re-snapshot fixpoint on the final checkpoint. arm picks the
// controller: rl, qroute, a DT controller trained by a short pre-training,
// or a DT controller measured without one and so still collecting.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(20260808), uint8(1))
	f.Add(int64(-7), uint8(0))
	f.Add(int64(1)<<40, uint8(1))
	f.Add(int64(3), uint8(2))
	f.Add(int64(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, arm uint8) {
		cfg := config.Small()
		cfg.PretrainCycles = 0
		cfg.WarmupCycles = 100
		cfg.MaxCycles = 600
		cfg.DrainCycles = 3000
		cfg.Fault.BaseErrorRate = 0.002
		cfg.HardFaults = "300:l5.east"
		cfg.Seed = seed
		scheme := []Scheme{SchemeRL, SchemeQRoute, SchemeDT, SchemeDT}[arm%4]
		trained := arm%4 == 2
		if scheme == SchemeDT {
			cfg.RL.StepCycles = 50 // control epochs, and so samples, within these few hundred cycles
		}
		if trained {
			cfg.PretrainCycles = 600
			cfg.HardFaults = "900:l5.east"
		}
		topo, err := topologyOf(cfg)
		if err != nil {
			t.Skip()
		}
		events, err := traffic.Synthetic(topo, traffic.Uniform, 0.003, cfg.FlitsPerPacket, 600, seed)
		if err != nil {
			t.Skip()
		}
		sim, err := NewSim(cfg, scheme)
		if err != nil {
			t.Fatal(err)
		}
		if trained {
			if err := sim.Pretrain(); err != nil {
				t.Fatal(err)
			}
		}
		dir := t.TempDir()
		sim.SetSnapshotPolicy(dir, 250)
		if _, err := sim.Measure(events, "fuzz"); err != nil {
			t.Fatal(err)
		}
		last := sim.LastSnapshotPath()
		if last == "" {
			t.Skip("run too short to checkpoint")
		}
		orig, err := os.ReadFile(last)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreSim(bytes.NewReader(orig))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := restored.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(orig, buf.Bytes()) {
			t.Fatalf("round-trip not a fixpoint: %d vs %d bytes", len(orig), len(buf.Bytes()))
		}
		restoreMustBeHostileV3(t, orig)
		if c, ok := restored.Controller().(*DTController); ok {
			restoreMustBeCorrupt(t, withDTDraws(t, orig, 1<<63))
			if got := c.tree != nil; got != trained {
				t.Fatalf("restored DT controller trained = %v, want %v", got, trained)
			}
			if trained {
				// One node more than a tree of the training depth can hold.
				restoreMustBeCorrupt(t, withTreeNodes(t, orig, 1<<(c.opts.MaxDepth+1)))
			} else if len(c.samples) == 0 {
				t.Fatal("collecting DT controller restored with no samples")
			}
		}
	})
}

// withTreeNodes returns a copy of a trained-DT checkpoint with the node
// count in its tree's header — the second word after the TREE section tag
// — overwritten.
func withTreeNodes(t *testing.T, data []byte, nodes uint64) []byte {
	t.Helper()
	off := treeNodesOffset(t, data)
	data = bytes.Clone(data)
	binary.LittleEndian.PutUint64(data[off:], nodes)
	return data
}

// treeNodesOffset is where data holds a tree's node count: after the TREE
// section tag and the feature count.
func treeNodesOffset(t *testing.T, data []byte) int {
	t.Helper()
	off := bytes.Index(data, []byte("TREE")) + 4 + 8
	if off < 12 || binary.LittleEndian.Uint64(data[off:]) > 1<<16 {
		t.Fatalf("offset %d does not hold a tree's node count", off)
	}
	return off
}

// treeNodes is the node count of c's trained tree, read from its
// checkpoint encoding.
func treeNodes(t *testing.T, c *DTController) int {
	t.Helper()
	var buf bytes.Buffer
	enc := snap.NewEncoder(&buf)
	c.tree.Snap(enc, c.opts)
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return int(binary.LittleEndian.Uint64(buf.Bytes()[treeNodesOffset(t, buf.Bytes()):]))
}

// restoreMustBeCorrupt requires RestoreSim to reject data as a corrupt
// stream — the one error recovery answers by falling back to the
// previous checkpoint.
func restoreMustBeCorrupt(t *testing.T, data []byte) {
	t.Helper()
	_, err := RestoreSim(bytes.NewReader(data))
	if err == nil {
		t.Fatal("hostile checkpoint restored")
	}
	if !snap.IsCorrupt(err) {
		t.Errorf("err = %v, want a snap.CorruptError", err)
	}
}

// firstCheckpoint runs the mesh snapshot config under scheme, with a
// control epoch every 100 cycles, and returns the bytes of its earliest
// checkpoint, for the hostile-input tests to patch. The epochs fill an rl
// arm's Q-table with rows. A DT arm is measured without pre-training, so
// its controller is still collecting and draws from its exploration
// source at every epoch.
func firstCheckpoint(t *testing.T, scheme Scheme) []byte {
	t.Helper()
	cfg := snapConfig("mesh")
	cfg.RL.StepCycles = 100
	dir := t.TempDir()
	if scheme == SchemeDT {
		sim, err := NewSim(cfg, scheme)
		if err != nil {
			t.Fatal(err)
		}
		sim.SetSnapshotPolicy(dir, 700)
		if _, err := sim.Measure(snapTrace(t, cfg), "snaptest"); err != nil {
			t.Fatal(err)
		}
	} else {
		runFull(t, cfg, scheme, snapTrace(t, cfg), dir, 700)
	}
	paths, _ := snapshotCycles(t, dir)
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// withDTDraws returns a copy of a DT checkpoint with its exploration
// source's draw count — the word after the DTCT tag and the collecting
// byte — overwritten.
func withDTDraws(t *testing.T, data []byte, draws uint64) []byte {
	t.Helper()
	off := bytes.Index(data, []byte("DTCT")) + 4 + 1
	if off < 5 || binary.LittleEndian.Uint64(data[off:]) > 1<<32 {
		t.Fatalf("offset %d does not hold a DT draw count", off)
	}
	data = bytes.Clone(data)
	binary.LittleEndian.PutUint64(data[off:], draws)
	return data
}

// TestHostileDrawCountIsCorrupt flips the top bit of one RNG draw count
// in a valid checkpoint. Replaying what the word claims would spin for
// 2^63 draws — a wedged recovery (this test would time out), not a
// failed one; the restore must instead hold the count to what the
// checkpoint's own cycle counter allows and fail as a corrupt stream.
func TestHostileDrawCountIsCorrupt(t *testing.T) {
	restoreMustBeCorrupt(t, withDTDraws(t, firstCheckpoint(t, SchemeDT), 1<<63))
}

// TestHostileConfigKeyIsCorrupt flips one bit of the embedded config's
// "hard_faults" key, making it "hard_faulus". A lenient decode dropped the
// unknown key and resumed without the checkpointed run's hard faults; the
// strict one refuses the stream as corrupt and names the key. A qroute
// checkpoint whose config still carries the "qroute" section, with the
// knobs that are now constants, is refused the same way: it asks for
// values this build may not run.
func TestHostileConfigKeyIsCorrupt(t *testing.T) {
	data := firstCheckpoint(t, SchemeRL)
	key := []byte(`"hard_faults"`)
	off := bytes.Index(data, key)
	if off < 0 || bytes.Count(data, key) != 1 {
		t.Fatalf("the checkpoint names %s %d times, want once", key, bytes.Count(data, key))
	}
	data = bytes.Clone(data)
	data[off+len(`"hard_faul`)] ^= 't' ^ 'u'
	_, err := RestoreSim(bytes.NewReader(data))
	if !snap.IsCorrupt(err) || !strings.Contains(err.Error(), `"hard_faulus"`) {
		t.Fatalf("err = %v, want a snap.CorruptError naming \"hard_faulus\"", err)
	}

	// The config's length prefix follows the magic, the version and the
	// CORE tag.
	data = firstCheckpoint(t, SchemeQRoute)
	const at = 12
	n := int(binary.LittleEndian.Uint32(data[at:]))
	cfgJSON := bytes.Replace(data[at+4:at+4+n], []byte(`,"pretrain_cycles"`),
		[]byte(`,"qroute":{"enabled":true,"alpha":0.3,"epsilon":0.05,"congestion_weight":4,"escape_timeout":8},"pretrain_cycles"`), 1)
	if len(cfgJSON) == n {
		t.Fatalf("no pretrain_cycles key in the embedded config %s", cfgJSON)
	}
	stale := binary.LittleEndian.AppendUint32(slices.Clone(data[:at]), uint32(len(cfgJSON)))
	stale = append(append(stale, cfgJSON...), data[at+4+n:]...)
	_, err = RestoreSim(bytes.NewReader(stale))
	if !snap.IsCorrupt(err) || !strings.Contains(err.Error(), `unknown field "qroute"`) {
		t.Fatalf("err = %v, want a snap.CorruptError naming \"qroute\"", err)
	}
}

// TestRestoreDrawCeilingHoldsAtDecode: RNG sources are lazy, so a restore
// only records each draw count and the replay happens at the source's first
// draw. The ceiling that keeps a hostile count from wedging that replay
// must still be applied by RestoreSim: one draw over it is a corrupt
// stream at decode, and a count at it restores and draws.
func TestRestoreDrawCeilingHoldsAtDecode(t *testing.T) {
	data := firstCheckpoint(t, SchemeDT)
	sim, err := RestoreSim(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	cycle := sim.Network().Cycle()
	// network.maxDraws: 256 draws per source per cycle, after a 4096-cycle
	// head start.
	ceiling := uint64(cycle+4096) * 256
	restoreMustBeCorrupt(t, withDTDraws(t, data, ceiling+1))

	sim, err = RestoreSim(bytes.NewReader(withDTDraws(t, data, ceiling)))
	if err != nil {
		t.Fatalf("a draw count at the ceiling failed to restore: %v", err)
	}
	// A collecting DT controller explores from that source, which replays
	// all ceiling draws first.
	if m := sim.Controller().Decide(0, network.Observation{}); m > network.Mode2 {
		t.Fatalf("first draw after the restore explored mode %d, want 0..2", m)
	}
}

// TestHostileV3FieldsAreCorrupt patches the words formats 2 and 3 added —
// the pending-event count, an input VC's ring head and its output VC
// index, a Q-table's row count and its rows' states — and requires each
// restore to fail as a corrupt stream, never a panic.
func TestHostileV3FieldsAreCorrupt(t *testing.T) {
	data := firstCheckpoint(t, SchemeRL)
	if _, rows, _ := qtabRows(t, data); rows < 2 {
		t.Fatalf("the checkpoint's Q-table holds %d rows; the row patches need two", rows)
	}
	restoreMustBeHostileV3(t, data)
}

// qtabRows locates the first Q-table of a checkpoint: the offset of its
// row count (right after the QTAB tag), the count, and the bytes of one
// row — a state index and the words of q and visits. off is -1 when
// the checkpoint holds no Q-table.
func qtabRows(t *testing.T, data []byte) (off, rows, rowBytes int) {
	t.Helper()
	tag := bytes.Index(data, []byte("QTAB"))
	if tag < 0 {
		return -1, 0, 0
	}
	off = tag + 4
	rows = int(binary.LittleEndian.Uint32(data[off:]))
	rowBytes = 2 + 4*8 + 4*4 // 50 bytes
	if rows > rl.NumStates || rows > 0 && binary.LittleEndian.Uint16(data[off+4:]) >= rl.NumStates {
		t.Fatalf("offset %d holds %d, not a Q-table's row count", off, rows)
	}
	return off, rows, rowBytes
}

// restoreMustBeHostileV3 runs TestHostileV3FieldsAreCorrupt's patches on
// one mid-measure checkpoint; the row patches where its Q-table has the
// rows they patch.
func restoreMustBeHostileV3(t *testing.T, data []byte) {
	t.Helper()
	if off, rows, rowBytes := qtabRows(t, data); off >= 0 {
		for _, count := range []uint32{rl.NumStates + 1, 0xffffffff} {
			bad := bytes.Clone(data)
			binary.LittleEndian.PutUint32(bad[off:], count)
			restoreMustBeCorrupt(t, bad)
		}
		first, second := off+4, off+4+rowBytes
		if rows >= 1 {
			bad := bytes.Clone(data)
			binary.LittleEndian.PutUint16(bad[first:], rl.NumStates)
			restoreMustBeCorrupt(t, bad)
		}
		if rows >= 2 {
			bad := bytes.Clone(data)
			copy(bad[second:second+2], data[first:first+2])
			restoreMustBeCorrupt(t, bad)
		}
	}
	p := readPending(t, data)
	for _, count := range []int64{p.remaining + 1, p.remaining - 1, math.MinInt64} {
		q := *p
		q.remaining = count
		restoreMustBeCorrupt(t, q.patch(data))
	}
	// Router 0's occupancy mask follows the RTRS tag; its first input VC
	// follows the mask, two round-robin arrays of NumPorts words and the
	// nine words of the control-epoch window: ring head, flit count, the
	// flits (inline, flitBytes each), the routed byte, the output port,
	// the output VC. An occupancy bit on an empty VC (the mask's low byte
	// set) contradicts the buffers.
	occ := bytes.Index(data, []byte("RTRS")) + 4
	vc := occ + 8 + 2*int(topology.NumPorts)*8 + 9*8
	outVC := vc + 2 + flitBytes()*int(data[vc+1]) + 2
	if data[outVC-2] > 1 || data[outVC-1] >= byte(topology.NumPorts) {
		t.Fatalf("offset %d does not hold router 0's first routed flag and output port", outVC-2)
	}
	for _, patch := range []struct {
		off int
		val byte
	}{{occ, 0xff}, {vc, 0xff}, {vc + 1, 0xff}, {outVC, 0x7f}, {outVC, 0xfe}} {
		bad := bytes.Clone(data)
		bad[patch.off] = patch.val
		restoreMustBeCorrupt(t, bad)
	}
}

// flitBytes is the width of a flit written at its home by the network's
// flit walk: a packet reference, Seq, Type, PacketID, Kind, Src, Dst and
// Attempt, the payload words, CRC, VC, the ECC check bytes, Tainted,
// Dirty and HopStart.
func flitBytes() int {
	var f flit.Flit
	return 8 + 8 + 1 + 8 + 1 + 3*4 + 8*len(f.Payload) + 2 + 8 + len(f.ECCCheck) + 2 + 8
}

// TestHostileModeMaskIsCorrupt: the mode mask comes from the config, and
// the RLCT walk's mask byte only cross-checks it, so a stream whose byte
// disagrees fails as corrupt rather than handing Decide a mask Validate
// never saw (one with no bit among the four modes spins its step-down).
func TestHostileModeMaskIsCorrupt(t *testing.T) {
	cfg := config.Small()
	var buf bytes.Buffer
	enc := snap.NewEncoder(&buf)
	if err := NewRLController(cfg, cfg.Routers()).Snap(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	cfg.RL.ModeMask = 0b0011
	if err := NewRLController(cfg, cfg.Routers()).Snap(snap.NewDecoder(&buf)); !snap.IsCorrupt(err) {
		t.Fatalf("err = %v, want a snap.CorruptError", err)
	}
}

// pendingSection is a checkpoint's pending trace, as the MEAS section
// lays it out after the has-measure byte and the label: the source count,
// the streams' total length and their bytes, each source's cycle base and
// stream length, then the pending count. The hostile tests edit it and
// patch it back.
type pendingSection struct {
	streams   [][]byte
	at        []int64
	lens      []int // the stream lengths patch writes
	remaining int64
	// start and end bound the section in the checkpoint.
	start, end int
}

// readPending parses data's pending section.
func readPending(t *testing.T, data []byte) *pendingSection {
	t.Helper()
	off := bytes.Index(data, []byte("MEAS")) + 4 + 1
	off += 4 + int(binary.LittleEndian.Uint32(data[off:]))
	p := &pendingSection{start: off}
	nodes := int(binary.LittleEndian.Uint32(data[off:]))
	total := int(binary.LittleEndian.Uint32(data[off+4:]))
	if nodes != 16 || total == 0 || off+8+total+12*nodes+8 > len(data) {
		t.Fatalf("offset %d holds %d sources and %d stream bytes, not a 4x4 fabric's pending trace", off, nodes, total)
	}
	slab := data[off+8 : off+8+total]
	off += 8 + total
	for range nodes {
		n := int(binary.LittleEndian.Uint32(data[off+8:]))
		p.at = append(p.at, int64(binary.LittleEndian.Uint64(data[off:])))
		p.lens = append(p.lens, n)
		p.streams = append(p.streams, slices.Clone(slab[:n]))
		slab, off = slab[n:], off+12
	}
	p.remaining = int64(binary.LittleEndian.Uint64(data[off:]))
	p.end = off + 8
	return p
}

// patch returns a copy of data with p in place of its pending section.
func (p *pendingSection) patch(data []byte) []byte {
	out := slices.Clone(data[:p.start])
	out = binary.LittleEndian.AppendUint32(out, uint32(len(p.streams)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(slices.Concat(p.streams...))))
	out = append(out, slices.Concat(p.streams...)...)
	for src := range p.streams {
		out = binary.LittleEndian.AppendUint64(out, uint64(p.at[src]))
		out = binary.LittleEndian.AppendUint32(out, uint32(p.lens[src]))
	}
	out = binary.LittleEndian.AppendUint64(out, uint64(p.remaining))
	return append(out, data[p.end:]...)
}

// TestHostileTraceLengthIsCorrupt edits the pending trace of a valid
// checkpoint — its total length, to the largest value the format admits;
// a truncated varint; a destination off the fabric or at the source; a
// packet of no flits; stream lengths that overrun the bytes or leave some
// over; a pending count the streams disagree with; a negative cycle base
// and cycle deltas whose sum overflows — and requires each restore to
// fail as a corrupt stream after a bounded allocation. Reserving what the
// length prefix claims (1 GiB) used to kill the process before the
// campaign's fall-back to the previous checkpoint could run.
func TestHostileTraceLengthIsCorrupt(t *testing.T) {
	data := firstCheckpoint(t, SchemeRL)
	orig := readPending(t, data)
	if got := orig.patch(data); !bytes.Equal(got, data) {
		t.Fatal("re-patching the unedited pending section changed the checkpoint")
	}
	// src is the first source with two pending events; head its first
	// event's destination and flits offsets in its stream.
	src, dstAt := -1, 0
	for s, st := range orig.streams {
		if in := (&injector{streams: [][]byte{st}, at: []int64{0}}); len(pendingEvents(in)) >= 2 {
			_, n := binary.Uvarint(st)
			src, dstAt = s, n
			break
		}
	}
	if src < 0 {
		t.Fatal("no source has two pending events")
	}
	last := len(orig.streams) - 1
	for len(orig.streams[last]) == 0 {
		last--
	}
	edit := func(f func(p *pendingSection)) []byte {
		p := &pendingSection{streams: make([][]byte, len(orig.streams)), at: slices.Clone(orig.at),
			lens: slices.Clone(orig.lens), remaining: orig.remaining, start: orig.start, end: orig.end}
		for s, st := range orig.streams {
			p.streams[s] = slices.Clone(st)
		}
		f(p)
		return p.patch(data)
	}
	cases := []struct {
		name, want string // want is in the error
		data       []byte
	}{
		{"total length 2^30", "EOF", func() []byte {
			bad := slices.Clone(data)
			binary.LittleEndian.PutUint32(bad[orig.start+4:], 1<<30)
			return bad
		}()},
		{"truncated varint", "truncated", edit(func(p *pendingSection) { p.streams[last][len(p.streams[last])-1] |= 0x80 })},
		{"destination off the fabric", "outside fabric", edit(func(p *pendingSection) { p.streams[src][dstAt] = byte(len(p.streams)) })},
		{"self-send", "self-send", edit(func(p *pendingSection) { p.streams[src][dstAt] = byte(src) })},
		{"no flits", "0 flits", edit(func(p *pendingSection) { p.streams[src][dstAt+1] = 0 })},
		{"lengths overrun the bytes", "are left", edit(func(p *pendingSection) { p.lens[last]++ })},
		{"lengths leave bytes over", "bytes over", edit(func(p *pendingSection) { p.lens[last]-- })},
		{"pending count too high", "pending events", edit(func(p *pendingSection) { p.remaining++ })},
		{"pending count too low", "pending events", edit(func(p *pendingSection) { p.remaining-- })},
		{"negative cycle base", "cycle base", edit(func(p *pendingSection) { p.at[src] = -1 })},
		{"cycle deltas overflow", "overflows", edit(func(p *pendingSection) {
			// Three events 2^62 cycles apart: the second's cycle passes
			// 2^63-1. The pending count stays right.
			ev := slices.Concat(binary.AppendUvarint(nil, 1<<62), []byte{byte((src + 1) % len(p.streams)), 4})
			p.remaining += 3 - int64(len(pendingEvents(&injector{streams: p.streams[src : src+1], at: []int64{0}})))
			p.streams[src] = slices.Concat(ev, ev, ev)
			p.lens[src] = len(p.streams[src])
		})},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := RestoreSim(bytes.NewReader(tc.data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: the checkpoint restored", tc.name)
			continue
		}
		if !snap.IsCorrupt(err) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a snap.CorruptError saying %q", tc.name, err, tc.want)
		}
		if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb >= 64 {
			t.Errorf("%s: restore allocated %d MB before rejecting a %d-byte checkpoint", tc.name, mb, len(tc.data))
		}
	}
}

// TestReplayCommandNamesLastCheckpoint: the command a checked run's
// failure prints restores the newest checkpoint the policy wrote, with
// every check armed and the event log beside it; with no checkpoint
// there is nothing to name.
func TestReplayCommandNamesLastCheckpoint(t *testing.T) {
	cfg := snapConfig(config.TopologyMesh)
	sim, err := NewSim(cfg, SchemeCRC)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.ReplayCommand(); got != "" {
		t.Fatalf("ReplayCommand before any checkpoint = %q, want empty", got)
	}
	dir := t.TempDir()
	sim.SetSnapshotPolicy(dir, 1000)
	if _, err := sim.Measure(snapTrace(t, cfg), "replay"); err != nil {
		t.Fatal(err)
	}
	paths, _ := snapshotCycles(t, dir)
	last := paths[len(paths)-1]
	want := "RLNOC_CHECKS=all nocsim -restore " + last + " -eventlog " + last + ".elog"
	if got := sim.ReplayCommand(); got != want {
		t.Fatalf("ReplayCommand = %q, want %q", got, want)
	}
}
