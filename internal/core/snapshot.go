package core

// Checkpoint/restore for the simulation driver (DESIGN.md §15). The Sim
// snapshot is self-contained: it embeds the Config (as JSON), the scheme,
// the full test trace and injector cursors, the measurement-phase
// bookkeeping, the controller state and the complete network state — so
// RestoreSim needs nothing but the snapshot stream to rebuild a Sim in a
// fresh process and ResumeMeasure continues bit-identically to the run
// that wrote it.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"rlnoc/internal/config"
	"rlnoc/internal/dt"
	"rlnoc/internal/eventlog"
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
// snapshot policy ("" if none yet) — the restart point for the
// invariant-bisection flow.
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
		if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
			// A bit flip inside the embedded JSON is invisible to the stream
			// framing; type it corrupt here so recovery falls back to the
			// previous checkpoint.
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

// snapMeasure walks the in-progress measurement phase. Decoding rebuilds
// the injector's per-source queues from the decoded trace, then lands
// the cursors in them.
func (s *Sim) snapMeasure(c *snap.Codec) {
	ms := s.ms
	c.String(&ms.label)
	snapEvents(c, &ms.events)
	if c.Err() != nil {
		return
	}
	if c.Decoding() {
		var err error
		if ms.in, err = s.accept(ms.events, 0); err != nil {
			c.Fail(err)
			return
		}
	}
	c.Ints(ms.in.heads)
	c.Int(&ms.in.remaining)
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
		for src, h := range ms.in.heads {
			if h < 0 || h > len(ms.in.queues[src]) {
				c.Fail(fmt.Errorf("core: snapshot injector head %d out of range", src))
				return
			}
		}
		ms.in.sync()
	}
}

// A trace event is stored as four I64 words (cycle, src, dst, flits);
// the trace moves through the codec eventBlock events at a time.
const (
	eventWords = 4
	eventBlock = 128
)

// snapEvents walks the test trace. Decoding builds a slice the restored
// sim owns; accept then holds it to the fabric like any other trace.
func snapEvents(c *snap.Codec, events *[]traffic.Event) {
	var words [eventWords * eventBlock]int64
	snap.Blocks(c, events, snap.MaxLen, eventBlock, func(run []traffic.Event) {
		for i, e := range run {
			words[eventWords*i], words[eventWords*i+1] = e.Cycle, int64(e.Src)
			words[eventWords*i+2], words[eventWords*i+3] = int64(e.Dst), int64(e.Flits)
		}
		c.RawI64s(words[:eventWords*len(run)])
		if c.Decoding() && c.Err() == nil {
			for i := range run {
				run[i] = traffic.Event{Cycle: words[eventWords*i], Src: int(words[eventWords*i+1]),
					Dst: int(words[eventWords*i+2]), Flits: int(words[eventWords*i+3])}
			}
		}
	})
}

// stateKey packs a discretized RL state into a sortable integer.
func stateKey(s rl.State) uint64 {
	return uint64(s.Buf)<<40 | uint64(s.InLink)<<32 | uint64(s.OutLink)<<24 |
		uint64(s.InNACK)<<16 | uint64(s.OutNACK)<<8 | uint64(s.Temp)
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
	snap.Map(cd, &c.visits, func(a, b rl.State) int { return cmp.Compare(stateKey(a), stateKey(b)) },
		func(cd *snap.Codec, st *rl.State, visits *int64) {
			st.Snap(cd)
			cd.I64(visits)
		})
	return cd.Err()
}

// featureCount is the length of every feature vector the DT controller
// holds.
var featureCount = len(featureVector(rl.Features{}))

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
// counters; the thresholds and training options are constants). Decoding
// overwrites a freshly constructed controller.
func (c *DTController) Snap(cd *snap.Codec) error {
	cd.Section("DTCT")
	cd.Bool(&c.collecting)
	c.src.Snap(cd)
	snap.Slice(cd, &c.samples, snap.MaxLen, func(cd *snap.Codec, s *dt.Sample) {
		snapFeatures(cd, &s.X)
		cd.F64(&s.Y)
	})
	cd.LenCheck(len(c.prevFeat))
	for i := range c.prevFeat {
		snapFeatures(cd, &c.prevFeat[i])
	}
	for i := range c.decideCount {
		cd.I64(&c.decideCount[i])
	}
	if err := cd.Err(); err != nil || c.collecting {
		return err
	}
	if cd.Decoding() {
		c.policy = &dt.Policy{Tree: new(dt.Tree), Thresholds: dt.DefaultThresholds()}
	}
	c.policy.Tree.Snap(cd, c.opts)
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

// ReplayFromSnapshot is the invariant-bisection flow: when a -checks
// watchdog fires deep into a long run, restore the latest checkpoint,
// attach an event log, and re-run the interrupted phase. The failure
// reproduces within one checkpoint interval with full event capture
// instead of re-running the whole history blind.
func ReplayFromSnapshot(path string, elogW io.Writer) (Result, error) {
	sim, err := RestoreSimFile(path)
	if err != nil {
		return Result{}, err
	}
	if elogW != nil {
		l := eventlog.New(elogW)
		sim.Network().SetEventLog(l)
		defer l.Flush()
	}
	return sim.ResumeMeasure()
}

// Bisect is the checkpoint-assisted failure workflow for a run that an
// invariant check terminated: replay from the latest checkpoint the
// snapshot policy wrote, capturing flit-level events into
// <checkpoint>.replay.elog, and report in one line how the replay ended
// ("" when no checkpoint was written, so there is nothing to replay).
func (s *Sim) Bisect() string {
	last := s.lastSnap
	if last == "" {
		return ""
	}
	elogPath := last + ".replay.elog"
	ef, err := os.Create(elogPath)
	if err != nil {
		return "bisect: " + err.Error()
	}
	_, rerr := ReplayFromSnapshot(last, ef)
	ef.Close()
	if rerr == nil {
		return fmt.Sprintf("replay from %s completed clean (failure did not reproduce from the checkpoint)", last)
	}
	return fmt.Sprintf("replay from %s reproduced the failure: %v; analyze with: nocsim -analyze %s", last, rerr, elogPath)
}
