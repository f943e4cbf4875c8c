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
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/snap"
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
// JSON, which lost exactly those two keys.
var snapshotBytesPins = []struct {
	name, topo string
	schemes    []Scheme
	sha        string
}{
	{"mesh", "mesh", []Scheme{SchemeRL, SchemeQRoute}, "67f133c1063b395d7b35fc86a61c7d0ad70a0100ff7b47b07b1056d397deb79b"},
	{"torus", "torus", []Scheme{SchemeRL, SchemeQRoute}, "77578372e6e73f83effc3d6dfa13d1ff45dd1533ade9832627b24656265fdbd6"},
	{"mesh-arq-ecc", "mesh", []Scheme{SchemeARQ}, "bca04cee6e997d022d42caf1f0de80bb14f2c4a280f2de049ec85a163668712a"},
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
		restoreMustBeCorrupt(t, withLastNIDraws(t, orig, 1<<63))
		if c, ok := restored.Controller().(*DTController); ok {
			if got := c.Tree() != nil; got != trained {
				t.Fatalf("restored DT controller trained = %v, want %v", got, trained)
			}
			if trained {
				// One node more than a tree of the training depth can hold.
				restoreMustBeCorrupt(t, withTreeNodes(t, orig, 1<<(c.opts.MaxDepth+1)))
			} else if c.Samples() == 0 {
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
	off := bytes.Index(data, []byte("TREE")) + 4 + 8
	if off < 12 || binary.LittleEndian.Uint64(data[off:]) > 1<<16 {
		t.Fatalf("offset %d does not hold a tree's node count", off)
	}
	data = bytes.Clone(data)
	binary.LittleEndian.PutUint64(data[off:], nodes)
	return data
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

// firstCheckpoint runs the mesh snapshot config and returns the bytes of
// its earliest checkpoint, for the hostile-input tests to patch.
func firstCheckpoint(t *testing.T) []byte {
	t.Helper()
	cfg := snapConfig("mesh")
	dir := t.TempDir()
	runFull(t, cfg, SchemeRL, snapTrace(t, cfg), dir, 700)
	paths, _ := snapshotCycles(t, dir)
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// withLastNIDraws returns a copy of a checkpoint with the last NI's
// payload-RNG draw count — the word ahead of the CTRL section tag —
// overwritten.
func withLastNIDraws(t *testing.T, data []byte, draws uint64) []byte {
	t.Helper()
	off := bytes.LastIndex(data, []byte("CTRL")) - 8
	if off < 0 || binary.LittleEndian.Uint64(data[off:]) > 1<<32 {
		t.Fatalf("offset %d does not hold an NI draw count", off)
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
	restoreMustBeCorrupt(t, withLastNIDraws(t, firstCheckpoint(t), 1<<63))
}

// TestRestoreDrawCeilingHoldsAtDecode: RNG sources are lazy, so a restore
// only records each draw count and the replay happens at the source's first
// draw. The ceiling that keeps a hostile count from wedging that replay
// must still be applied by RestoreSim: one draw over it is a corrupt
// stream at decode, and a count at it restores and draws.
func TestRestoreDrawCeilingHoldsAtDecode(t *testing.T) {
	data := firstCheckpoint(t)
	sim, err := RestoreSim(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	cycle, last := sim.Network().Cycle(), sim.Network().Topology().Nodes()-1
	// network.maxDraws: 256 draws per source per cycle, after a 4096-cycle
	// head start.
	ceiling := uint64(cycle+4096) * 256
	restoreMustBeCorrupt(t, withLastNIDraws(t, data, ceiling+1))

	sim, err = RestoreSim(bytes.NewReader(withLastNIDraws(t, data, ceiling)))
	if err != nil {
		t.Fatalf("a draw count at the ceiling failed to restore: %v", err)
	}
	// A packet built at the last NI draws its payload from that source,
	// which replays all ceiling draws first.
	if p, err := sim.Network().NewDataPacket(last, 0, 1, cycle); err != nil || p == nil {
		t.Fatalf("first draw after the restore: packet %v, err %v", p, err)
	}
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

// TestHostileTraceLengthIsCorrupt patches one word of a valid checkpoint
// — the MEAS section's trace length, to the largest value the format
// admits — and requires the restore to fail as a corrupt stream after a
// bounded allocation. Reserving what the prefix claims (32 GiB of
// events) kills the process, and the campaign's fall-back to the
// previous checkpoint never runs.
func TestHostileTraceLengthIsCorrupt(t *testing.T) {
	data := firstCheckpoint(t)
	// MEAS tag, the has-measure byte, the length-prefixed label, then the
	// trace length.
	off := bytes.Index(data, []byte("MEAS")) + 4 + 1
	off += 4 + int(binary.LittleEndian.Uint32(data[off:]))
	if n := binary.LittleEndian.Uint32(data[off:]); n == 0 || int(n)*8*4 > len(data) {
		t.Fatalf("offset %d holds %d, not the trace length", off, n)
	}
	binary.LittleEndian.PutUint32(data[off:], 1<<30)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := RestoreSim(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("checkpoint with a 2^30-event trace length restored")
	}
	if !snap.IsCorrupt(err) {
		t.Errorf("err = %v, want a snap.CorruptError", err)
	}
	if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb >= 64 {
		t.Errorf("restore allocated %d MB before rejecting a %d-byte checkpoint", mb, len(data))
	}
}
