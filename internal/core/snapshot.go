package core

// Checkpoint/restore for the simulation driver (DESIGN.md §15). The Sim
// snapshot is self-contained: it embeds the Config (as JSON), the scheme,
// the test-trace events not yet injected, the measurement-phase
// bookkeeping, the controller state and the complete network state — so
// RestoreSim needs nothing but the snapshot stream to rebuild a Sim in a
// fresh process and ResumeMeasure continues bit-identically to the run
// that wrote it.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"rlnoc/internal/config"
	"rlnoc/internal/dt"
	"rlnoc/internal/rl"
	"rlnoc/internal/snap"
	"rlnoc/internal/traffic"
)

// SetSnapshotPolicy enables periodic checkpoints: every `every` cycles
// of a measurement phase, the full simulation state is written into dir
// (atomically, via rename). every <= 0 disables.
func (s *Sim) SetSnapshotPolicy(dir string, every int64) {
	s.snapDir = dir
	s.snapEvery = every
}

// LastSnapshotPath returns the most recent checkpoint written by the
// snapshot policy ("" if none yet) — the restart point ReplayCommand
// names.
func (s *Sim) LastSnapshotPath() string { return s.lastSnap }

func (s *Sim) writeAutoSnapshot() error {
	path, err := s.SaveSnapshotIn(s.snapDir)
	if err != nil {
		return err
	}
	s.lastSnap = path
	return nil
}

// SaveSnapshotIn writes a checkpoint into dir under the canonical
// cycle-stamped name and returns its path. The campaign supervisor uses
// this for suspend snapshots (graceful shutdown, watchdog stall-kill):
// an aborted Sim sits at an inter-cycle boundary, so the file it writes
// is indistinguishable from a policy-driven checkpoint at that cycle.
func (s *Sim) SaveSnapshotIn(dir string) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("snapshot-%012d.rlns", s.net.Cycle()))
	if err := s.SaveSnapshot(path); err != nil {
		return "", err
	}
	return path, nil
}

// SaveSnapshot writes the complete simulation state to path, creating
// parent directories as needed. The write is durable and atomic
// (tmp + fsync + rename, see snap.WriteFileAtomic): a crash — even a
// SIGKILL — mid-write never leaves a truncated file under the final
// name.
func (s *Sim) SaveSnapshot(path string) error {
	return snap.WriteFileAtomic(path, s.encode)
}

// WriteSnapshot writes the complete simulation state to w — the stream
// RestoreSim reads.
func (s *Sim) WriteSnapshot(w io.Writer) error {
	c := snap.NewEncoder(w)
	defer c.Release()
	if err := s.encode(c); err != nil {
		return err
	}
	return c.Flush()
}

func (s *Sim) encode(c *snap.Codec) error {
	_, err := snapSim(c, s)
	return err
}

// Checkpoint is a simulation's complete state at one inter-cycle boundary,
// held in memory: the stream WriteSnapshot writes. It is immutable, so any
// number of goroutines may call Sim at once. Its use is to pay for a phase
// once — pre-training, which every benchmark of a suite and every rate of
// a sweep repeats identically — and continue from its end many times
// (DESIGN.md §21).
type Checkpoint struct{ stream []byte }

// Checkpoint captures the simulation as it stands. The Sim is not
// disturbed and may go on running.
func (s *Sim) Checkpoint() (*Checkpoint, error) {
	var buf bytes.Buffer
	if err := s.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	return &Checkpoint{stream: buf.Bytes()}, nil
}

// Save writes the held stream to path as SaveSnapshot would have written
// it, atomically; RestoreSimFile reads it back.
func (k *Checkpoint) Save(path string) error { return snap.WriteRawAtomic(path, k.stream) }

// Sim builds a new simulation in the captured state, sharing nothing
// mutable with the one the checkpoint was taken from or with any other
// built from it. It is RestoreSim over the held stream, so whatever the
// new Sim goes on to do is byte-identical to what the original would have
// done from that point.
func (k *Checkpoint) Sim() (*Sim, error) {
	return RestoreSim(bytes.NewReader(k.stream))
}

// RestoreSim reads a snapshot written by WriteSnapshot/SaveSnapshot and
// reconstructs the simulation mid-run. The config and scheme come from
// the stream, so the caller needs nothing but the snapshot itself;
// ResumeMeasure then continues the interrupted measurement phase.
func RestoreSim(rd io.Reader) (*Sim, error) {
	c := snap.NewDecoder(rd)
	defer c.Release()
	return snapSim(c, nil)
}

// snapSim walks the full simulation stream: header, config, scheme,
// measurement phase, controller, then the network. Encoding walks s;
// decoding ignores s and builds the Sim from the config and scheme the
// stream itself carries, then walks the same fields into it.
func snapSim(c *snap.Codec, s *Sim) (*Sim, error) {
	var cfgJSON []byte
	var scheme string
	if !c.Decoding() {
		var err error
		if cfgJSON, err = json.Marshal(s.cfg); err != nil {
			return nil, fmt.Errorf("core: snapshot config: %w", err)
		}
		scheme = string(s.scheme)
	}
	if err := c.Header(); err != nil {
		return nil, err
	}
	c.Section("CORE")
	c.Bytes(&cfgJSON)
	c.String(&scheme)
	if err := c.Err(); err != nil {
		return nil, err
	}
	if c.Decoding() {
		var cfg config.Config
		if err := config.Decode(cfgJSON, &cfg); err != nil {
			// A bit flip inside the embedded JSON, even one that only
			// renames a key, is invisible to the stream framing; type it
			// corrupt so recovery falls back to the previous checkpoint.
			return nil, snap.Corrupt(fmt.Errorf("core: snapshot config: %w", err))
		}
		var err error
		if s, err = NewSim(cfg, Scheme(scheme)); err != nil {
			return nil, snap.Corrupt(err)
		}
	}
	if err := s.snapState(c); err != nil {
		return nil, err
	}
	return s, nil
}

// snapState walks everything below the config prologue.
func (s *Sim) snapState(c *snap.Codec) error {
	c.Section("MEAS")
	measuring := s.ms != nil
	c.Bool(&measuring)
	if measuring {
		if c.Decoding() {
			s.ms = &measureState{}
		}
		s.snapMeasure(c)
	}
	if err := c.Err(); err != nil {
		return err
	}
	// Static controllers (crc, arq-ecc, the static-* arms) walk a bare
	// section tag, the RL controllers their tables, the DT controller its
	// training set or its tree.
	if err := s.net.SnapController(c); err != nil {
		return err
	}
	return s.net.Snap(c)
}

// snapMeasure walks the in-progress measurement phase: its label, the
// injector's pending events (snapStreams) and their count, then the phase
// bookkeeping. A count that disagrees with the streams is corrupt.
func (s *Sim) snapMeasure(c *snap.Codec) {
	ms := s.ms
	c.String(&ms.label)
	if c.Decoding() {
		ms.in = newInjector(s.cfg.Routers(), s.cfg.SourceWindow, 0)
	}
	if ms.in.snapStreams(c); c.Err() != nil {
		return
	}
	remaining := ms.in.remaining
	c.Int(&remaining)
	if c.Decoding() && remaining != ms.in.remaining {
		c.Fail(fmt.Errorf("core: snapshot holds %d pending events, its count says %d", ms.in.remaining, remaining))
		return
	}
	c.I64(&ms.base)
	c.I64(&ms.warmEnd)
	c.I64(&ms.capCycle)
	c.F64(&ms.dynStart)
	c.F64(&ms.totStart)
	c.I64(&ms.measureStart)
	c.Bool(&ms.started)
	c.Bool(&ms.drained)
	if c.Decoding() {
		ms.in.base = ms.base
		ms.in.sync()
	}
}

// snapStreams walks the injector's unread streams: the source count, the
// streams' total length and every source's unread suffix as it stands,
// then per source its cycle base and suffix length. Decoding reads the
// suffixes into one slab, cuts it into the streams and holds every event
// to the fabric (parseStream), counting them into remaining.
func (in *injector) snapStreams(c *snap.Codec) {
	c.LenCheck(len(in.streams))
	var slab []byte
	if c.Decoding() {
		c.Bytes(&slab)
	} else {
		total := 0
		for _, st := range in.streams {
			total += len(st)
		}
		c.Len(&total)
		for _, st := range in.streams {
			c.RawBytes(st)
		}
	}
	for src := range in.streams {
		c.I64(&in.at[src])
		n := len(in.streams[src])
		c.Len(&n)
		if c.Decoding() && c.Err() == nil {
			if n > len(slab) {
				c.Fail(fmt.Errorf("core: snapshot source %d claims %d stream bytes, %d are left", src, n, len(slab)))
				return
			}
			in.streams[src], slab = slab[:n:n], slab[n:]
		}
	}
	if !c.Decoding() || c.Err() != nil {
		return
	}
	if len(slab) > 0 {
		c.Fail(fmt.Errorf("core: snapshot streams leave %d bytes over", len(slab)))
		return
	}
	for src, st := range in.streams {
		n, err := parseStream(st, src, len(in.streams), in.at[src])
		if err != nil {
			c.Fail(err)
			return
		}
		in.remaining += n
	}
}

// parseStream checks that st is a whole number of src's packed events
// whose cycles, counted up from at, stay within int64 and each of which
// passes traffic.CheckEvent on a fabric of nodes, and returns how many it
// holds.
func parseStream(st []byte, src, nodes int, at int64) (int, error) {
	if at < 0 {
		return 0, fmt.Errorf("core: snapshot source %d has cycle base %d", src, at)
	}
	events := 0
	for len(st) > 0 {
		var w [3]uint64 // delta, dst, flits
		for i := range w {
			v, k := binary.Uvarint(st)
			if k <= 0 || v > math.MaxInt {
				return 0, fmt.Errorf("core: snapshot source %d event %d: truncated or out-of-range varint", src, events)
			}
			w[i], st = v, st[k:]
		}
		if w[0] > uint64(math.MaxInt64-at) {
			return 0, fmt.Errorf("core: snapshot source %d event %d: cycle overflows", src, events)
		}
		at += int64(w[0])
		if err := traffic.CheckEvent(nodes, src, int(w[1]), int(w[2])); err != nil {
			return 0, fmt.Errorf("core: snapshot source %d event %d %w", src, events, err)
		}
		events++
	}
	return events, nil
}

// tableReps computes, per agent, the index of the first agent whose
// Q-table it shares (itself if unshared) — the canonical encoding of the
// sharing structure, independent of how the tables were allocated.
func tableReps(agents []*rl.Agent) []int {
	rep := make([]int, len(agents))
	for i, a := range agents {
		rep[i] = i
		for j := 0; j < i; j++ {
			if a.SharesTableWith(agents[j]) {
				rep[i] = j
				break
			}
		}
	}
	return rep
}

// snapAgents walks a controller's agents: the shared-table groups (each
// table walked once, by its first owner), then every agent's learner
// state. Decoding overwrites freshly constructed agents, whose sharing
// structure must match the snapshot's (it is config-derived, so a Sim
// rebuilt from the embedded config always matches).
func snapAgents(cd *snap.Codec, agents []*rl.Agent) error {
	cd.LenCheck(len(agents))
	rep := tableReps(agents)
	got := slices.Clone(rep)
	cd.VarInts(&got, snap.MaxLen)
	if err := cd.Err(); err != nil {
		return err
	}
	if len(got) != len(rep) {
		return fmt.Errorf("core: snapshot has %d agents, controller has %d", len(got), len(rep))
	}
	for i := range rep {
		if got[i] != rep[i] {
			return fmt.Errorf("core: snapshot table sharing differs at agent %d (snapshot group %d, controller group %d)",
				i, got[i], rep[i])
		}
	}
	for i, a := range agents {
		if rep[i] == i {
			a.SnapTable(cd)
		}
	}
	for _, a := range agents {
		a.SnapLocal(cd)
	}
	return cd.Err()
}

// Snap walks the controller: its agents (snapAgents), the mode mask, and
// the telemetry the Result reports. Decoding overwrites a freshly
// constructed controller.
func (c *RLController) Snap(cd *snap.Codec) error {
	cd.Section("RLCT")
	if err := snapAgents(cd, c.agents); err != nil {
		return err
	}
	// The mask is config-derived; the stream's byte is a cross-check, so a
	// damaged one cannot hand Decide a mask Validate would have refused.
	mask := c.mask
	cd.U8(&mask)
	if mask != c.mask {
		cd.Fail(fmt.Errorf("core: snapshot mode mask %#b, config %#b", mask, c.mask))
	}
	for i := range c.decideCount {
		cd.I64(&c.decideCount[i])
	}
	for i := range c.rewardSum {
		cd.F64(&c.rewardSum[i])
	}
	for i := range c.rewardCount {
		cd.I64(&c.rewardCount[i])
	}
	cd.Ints(c.prevAction)
	return cd.Err()
}

// snapFeatures walks one feature vector: absent (a router not yet
// observed) or featureCount values.
func snapFeatures(cd *snap.Codec, x *[]float64) {
	present := *x != nil
	cd.Bool(&present)
	if cd.Decoding() {
		*x = nil
		if present {
			*x = make([]float64, featureCount)
		}
	}
	if present {
		cd.F64s(*x)
	}
}

// Snap walks the controller in either of its lives: collecting (the
// exploration stream's position, the labeled samples so far and each
// router's pending feature vector) or trained (the tree and the decision
// counters; the mode bounds and training options are constants). Decoding
// overwrites a freshly constructed controller.
func (c *DTController) Snap(cd *snap.Codec) error {
	cd.Section("DTCT")
	cd.Bool(&c.collecting)
	c.src.Snap(cd)
	if c.collecting {
		snap.Slice(cd, &c.samples, snap.MaxLen, func(cd *snap.Codec, s *dt.Sample) {
			snapFeatures(cd, &s.X)
			cd.F64(&s.Y)
		})
		cd.LenCheck(len(c.prevFeat))
		for i := range c.prevFeat {
			snapFeatures(cd, &c.prevFeat[i])
		}
	} else if cd.Decoding() {
		c.samples, c.prevFeat = nil, nil
	}
	for i := range c.decideCount {
		cd.I64(&c.decideCount[i])
	}
	if err := cd.Err(); err != nil || c.collecting {
		return err
	}
	if cd.Decoding() {
		c.tree = new(dt.Tree)
	}
	c.tree.Snap(cd, c.opts)
	return cd.Err()
}

// RestoreSimFile restores a simulation from a snapshot file.
func RestoreSimFile(path string) (*Sim, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	defer f.Close()
	sim, err := RestoreSim(f)
	if err != nil {
		return nil, fmt.Errorf("core: restore %s: %w", path, err)
	}
	return sim, nil
}

// ListSnapshots returns every snapshot file in dir, newest first — the
// fallback chain recovery walks when the latest checkpoint turns out to
// be corrupt. An empty slice (no error) means no checkpoints exist.
func ListSnapshots(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "snapshot-*.rlns"))
	if err != nil {
		return nil, fmt.Errorf("core: list snapshots: %w", err)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(matches)))
	return matches, nil
}

// ReplayCommand returns the command that replays the measured phase from
// the latest checkpoint the snapshot policy wrote, with every invariant
// check armed and flit-level events recorded beside the checkpoint — how
// a run an invariant check terminated is reproduced ("" when no
// checkpoint was written). The env prefix is needed because a run armed
// by RLNOC_CHECKS alone restores with checks off.
func (s *Sim) ReplayCommand() string {
	if s.lastSnap == "" {
		return ""
	}
	return fmt.Sprintf("%s=all nocsim -restore %s -eventlog %s.elog", config.EnvChecks, s.lastSnap, s.lastSnap)
}
