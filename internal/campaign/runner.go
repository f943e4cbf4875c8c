package campaign

// One attempt of one job, from checkpoint discovery to classification.
// Everything failure-prone lives inside attempt(), behind a recover():
// a panicking simulation is an attempt outcome, never a dead process.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"rlnoc/internal/core"
	"rlnoc/internal/snap"
)

// heartbeat is the lock-free progress channel between a running attempt
// (which ticks it from the simulator's progress callback) and the
// watchdog (which reads it on its scan interval).
type heartbeat struct {
	lastNS atomic.Int64
	cyc    atomic.Int64
}

func (h *heartbeat) reset(now time.Time) { h.lastNS.Store(now.UnixNano()); h.cyc.Store(0) }
func (h *heartbeat) tick(cycle int64)    { h.lastNS.Store(time.Now().UnixNano()); h.cyc.Store(cycle) }
func (h *heartbeat) last() time.Time     { return time.Unix(0, h.lastNS.Load()) }
func (h *heartbeat) cycle() int64        { return h.cyc.Load() }

type attemptKind int

const (
	attemptDone     attemptKind = iota // classified; job terminal
	attemptFail                        // failed; retried once if a stall, else dead
	attemptSuspend                     // graceful shutdown; job pending
	attemptDeadline                    // per-job deadline expired; job dead
)

type attemptResult struct {
	kind      attemptKind
	outcome   string
	detail    string
	result    core.Result
	recovered bool
	err       error
}

// jobDir is where a job's checkpoints (and bisect replay logs) live.
func (e *Engine) jobDir(id string) string { return filepath.Join(e.dir, "jobs", id) }

// runJob executes one attempt of j and applies the resulting state
// transition, journaling each side of it (start before, verdict after).
func (e *Engine) runJob(ctx context.Context, j *job) {
	e.mu.Lock()
	spec, starts, elapsed := j.spec, j.starts, j.elapsed
	e.mu.Unlock()

	if err := e.journal.Append(Record{Type: RecStart, Job: spec.ID, Attempt: starts}); err != nil {
		e.logf("journal: %v", err)
	}
	began := time.Now()
	out := e.attempt(ctx, j, spec, starts, elapsed)
	ran := time.Since(began)

	e.unclaim(j) // the phase failed, or never ran
	e.mu.Lock()
	sim := j.sim
	j.sim = nil
	j.elapsed += ran
	j.recovered = j.recovered || out.recovered
	elapsedMS := int64(j.elapsed / time.Millisecond)
	var rec Record
	switch out.kind {
	case attemptDone:
		j.state = jobDone
		j.outcome, j.detail, j.result = out.outcome, out.detail, out.result
		resJSON, err := json.Marshal(out.result)
		if err != nil {
			e.logf("journal: marshal result for %s: %v", spec.ID, err)
		}
		rec = Record{Type: RecDone, Job: spec.ID, Attempt: j.failures,
			Outcome: out.outcome, Detail: out.detail, Recovered: j.recovered, Result: resJSON}
	case attemptDeadline:
		j.state = jobDead
		j.outcome = OutcomeDeadline
		j.errMsg = errDeadline.Error()
		rec = Record{Type: RecDead, Job: spec.ID, Outcome: OutcomeDeadline, Error: j.errMsg}
		e.logf("job %s: deadline %v exhausted, abandoning", spec.ID, spec.Deadline)
	case attemptSuspend:
		j.state = jobPending
		rec = Record{Type: RecSuspend, Job: spec.ID, ElapsedMS: elapsedMS}
		e.logf("job %s: suspended at cycle %d", spec.ID, j.beat.cycle())
	case attemptFail:
		// A stall is the one failure the host, not the job, can cause;
		// any other would recur at the same cycle.
		j.failures++
		if j.failures == 1 && errors.Is(out.err, ErrStalled) {
			j.state = jobPending
			rec = Record{Type: RecFail, Job: spec.ID, Attempt: j.failures,
				Error: out.err.Error(), ElapsedMS: elapsedMS}
			e.logf("job %s: attempt %d stalled, resuming", spec.ID, starts)
			break
		}
		j.state = jobDead
		j.outcome = OutcomeDead
		j.errMsg = out.err.Error()
		if sim != nil && sim.ReplayCommand() != "" {
			j.errMsg += "; replay with: " + sim.ReplayCommand()
		}
		rec = Record{Type: RecDead, Job: spec.ID, Outcome: OutcomeDead, Error: j.errMsg}
		e.logf("job %s: dead after %d failed attempts: %s", spec.ID, j.failures, j.errMsg)
	}
	if j.terminal() && j.key != "" {
		e.dropUnused(j.key)
	}
	e.mu.Unlock()
	if err := e.journal.Append(rec); err != nil {
		e.logf("journal: %v", err)
	}
	if out.kind == attemptDone {
		e.logf("job %s: done (%s)", spec.ID, out.outcome)
	}
	e.cond.Broadcast()
}

// dropUnused forgets key's pre-trained state once no unfinished job of the
// key remains; the file stays for a rerun. Callers hold e.mu.
func (e *Engine) dropUnused(key string) {
	for _, o := range e.jobs {
		if o.key == key && !o.terminal() {
			return
		}
	}
	delete(e.pretrained, key)
}

// attempt runs the simulation once: open it (openSim), wire the
// heartbeat / deadline / cancellation / injection hooks, run, and
// classify how it ended. A panic anywhere inside is converted to a
// failure by the deferred recover.
func (e *Engine) attempt(ctx context.Context, j *job, spec Spec, starts int, elapsed time.Duration) (out attemptResult) {
	defer func() {
		if p := recover(); p != nil {
			out = attemptResult{kind: attemptFail,
				err: fmt.Errorf("campaign: job %s panicked: %v", spec.ID, p)}
		}
	}()

	if spec.Deadline > 0 && spec.Deadline-elapsed <= 0 {
		return attemptResult{kind: attemptDeadline, err: errDeadline}
	}

	dir := e.jobDir(spec.ID)
	sim, at, err := e.openSim(j, spec, dir)
	if err != nil {
		return attemptResult{kind: attemptFail, err: err}
	}
	sim.SetSnapshotPolicy(dir, spec.SnapshotEvery)
	resumed := at == atCheckpoint

	e.mu.Lock()
	j.sim = sim
	e.mu.Unlock()
	if ctx.Err() != nil {
		// Cancelled between the queue pick and here; the Run-level
		// AfterFunc has already fired, so deliver the abort by hand.
		sim.Abort(context.Cause(ctx))
	}
	// The heartbeat ticks at every control poll, so it carries the cycle
	// the run last reached.
	sim.SetProgress(0, func(cycle int64) { j.beat.tick(cycle) })
	if spec.Deadline > 0 {
		t := time.AfterFunc(spec.Deadline-elapsed, func() { sim.Abort(errDeadline) })
		defer t.Stop()
	}
	// A panic is a bug in the job and recurs on every start; a stall is
	// the host's, and does not.
	inj := spec.Inject
	if starts > 1 {
		inj.StallAtCycle = 0
	}
	if inj.armed() {
		armInjection(sim, inj)
	}

	var res core.Result
	var merr error
	if at == atStart && spec.Pretrain {
		// The key's one phase: its other jobs, and this one if resumed,
		// fork the state it ends in.
		if merr = sim.Pretrain(); merr == nil {
			e.keep(j, sim)
		}
	}
	switch {
	case merr != nil:
	case resumed:
		res, merr = sim.ResumeMeasure()
	default:
		events, terr := spec.Trace.Events(spec.Config)
		if terr != nil {
			return attemptResult{kind: attemptFail, err: terr}
		}
		res, merr = sim.Measure(events, spec.Label)
	}

	if core.IsAbort(merr) {
		// Killed between cycles: the state is clean, so checkpoint it —
		// the next attempt resumes here instead of replaying from the
		// last periodic snapshot (or cycle 0).
		if spec.SnapshotEvery > 0 && sim.HasMeasure() {
			if _, serr := sim.SaveSnapshotIn(dir); serr != nil {
				e.logf("job %s: suspend snapshot: %v", spec.ID, serr)
			}
		}
		switch {
		case errors.Is(merr, errDeadline):
			return attemptResult{kind: attemptDeadline, recovered: resumed, err: errDeadline}
		case errors.Is(merr, ErrStalled):
			return attemptResult{kind: attemptFail, recovered: resumed, err: merr}
		default: // graceful shutdown (context cancellation)
			return attemptResult{kind: attemptSuspend, recovered: resumed, err: merr}
		}
	}

	outcome, iv, cerr := Classify(res, merr, sim.Network())
	if cerr != nil {
		return attemptResult{kind: attemptFail, recovered: resumed, err: cerr}
	}
	detail := FormatDetail(sim.Network(), res)
	if outcome == OutcomeWatchdog {
		e.logf("%s", iv.Report())
		if cmd := sim.ReplayCommand(); cmd != "" {
			e.logf("job %s: replay with: %s", spec.ID, cmd)
		}
	}
	return attemptResult{kind: attemptDone, outcome: outcome, detail: detail,
		result: res, recovered: resumed}
}

// Where openSim found a job's simulation.
type simStart int

const (
	atStart      simStart = iota // freshly built: cycle 0
	atPretrained                 // the campaign's pre-trained state for the job's (config, scheme)
	atCheckpoint                 // the job's own newest checkpoint, mid-measure
)

// openSim returns the job's simulation at the latest point it can be put:
// its own newest valid checkpoint; else, for a job that pre-trains, a fork
// of the state its (config, scheme) ended pre-training in; else a fresh
// build. Pre-training reads nothing of the trace that follows it, so that
// state serves every such job (DESIGN.md §21).
func (e *Engine) openSim(j *job, spec Spec, dir string) (*core.Sim, simStart, error) {
	if spec.SnapshotEvery > 0 {
		snaps, err := core.ListSnapshots(dir)
		if err != nil {
			return nil, 0, err
		}
		for _, path := range snaps {
			if sim, err := e.restore(spec.ID, path); sim != nil || err != nil {
				e.unclaim(j) // past pre-training: its key-mates need not wait
				return sim, atCheckpoint, err
			}
		}
	}
	if spec.Pretrain {
		if sim, err := e.fromPretrained(j); sim != nil || err != nil {
			return sim, atPretrained, err
		}
	}
	sim, err := core.NewSim(spec.Config, core.Scheme(spec.Scheme))
	return sim, atStart, err
}

// fromPretrained forks the pre-trained state of j's key held in memory.
// Only after a restart does it read the key's file, which it then holds
// for the key's other jobs. (nil, nil) means there is neither.
func (e *Engine) fromPretrained(j *job) (sim *core.Sim, err error) {
	e.mu.Lock()
	k := e.pretrained[j.key]
	e.mu.Unlock()
	if k != nil {
		sim, err = k.Sim()
	} else if sim, err = e.restore(j.spec.ID, j.key); sim != nil {
		if k, err = sim.Checkpoint(); err != nil {
			return nil, err
		}
		e.hold(j.key, k)
	}
	if sim != nil {
		e.logf("job %s: starts from pre-trained state %s", j.spec.ID, filepath.Base(j.key))
	}
	return sim, err
}

// keep holds the state sim ended pre-training in for the other jobs of j's
// key, and writes the same bytes as the key's file for a rerun.
func (e *Engine) keep(j *job, sim *core.Sim) {
	k, err := sim.Checkpoint()
	if err == nil {
		e.hold(j.key, k)
		if !e.scratch {
			err = k.Save(j.key)
		}
	}
	if err != nil {
		e.logf("job %s: pre-trained state not kept: %v", j.spec.ID, err)
		return
	}
	e.logf("job %s: pre-trained state kept as %s", j.spec.ID, filepath.Base(j.key))
}

// unclaim ends j's claim on its key's pre-training, if it holds it, so a
// key-mate may take the phase up.
func (e *Engine) unclaim(j *job) {
	e.mu.Lock()
	if e.training[j.key] == j {
		delete(e.training, j.key)
	}
	e.mu.Unlock()
	e.cond.Broadcast()
}

// hold keeps k as key's pre-trained state and ends the key's claim.
func (e *Engine) hold(key string, k *core.Checkpoint) {
	e.mu.Lock()
	e.pretrained[key] = k
	delete(e.training, key)
	e.mu.Unlock()
	e.cond.Broadcast()
}

// restore reads the snapshot file at path. A missing file is (nil, nil),
// and so is a corrupt one (truncated by a crash that beat the rename,
// bit-flipped on a dying disk) — the typed snap.CorruptError contract from
// the read side — after it is quarantined under a .corrupt suffix, so the
// caller falls back to the next-older state.
func (e *Engine) restore(id, path string) (*core.Sim, error) {
	sim, err := core.RestoreSimFile(path)
	switch {
	case err == nil:
		return sim, nil
	case errors.Is(err, fs.ErrNotExist):
		return nil, nil
	case !snap.IsCorrupt(err):
		return nil, err
	}
	e.logf("job %s: %s unreadable (%v), falling back", id, filepath.Base(path), err)
	if mvErr := os.Rename(path, path+".corrupt"); mvErr != nil {
		e.logf("job %s: quarantine %s: %v", id, filepath.Base(path), mvErr)
	}
	return nil, nil
}

// pretrainPath names the file holding the state at the end of
// pre-training for spec's (config, scheme): everything the phase reads.
func (e *Engine) pretrainPath(spec Spec) string {
	id := identity(spec)
	return filepath.Join(e.dir, "pretrain-"+digest([]any{id.Config, id.Scheme})[:24]+".rlns")
}

// injectEvery is the induced-failure observer's period, in cycles.
const injectEvery = 64

// armInjection installs the induced-failure observer. Observers read
// the network after a Step and never write it, so an armed injection
// that never fires leaves the run byte-identical to an unobserved one.
// The injected stall blocks inside the observer until an abort lands —
// exactly the shape of a wedged run from the watchdog's point of view —
// while staying responsive to shutdown.
func armInjection(sim *core.Sim, inj InjectSpec) {
	fired := false
	sim.SetObserver(injectEvery, func(s core.Snapshot) {
		if fired {
			return
		}
		if inj.PanicAtCycle > 0 && s.Cycle >= inj.PanicAtCycle {
			fired = true
			panic(fmt.Sprintf("campaign: injected panic at cycle %d", s.Cycle))
		}
		if inj.StallAtCycle > 0 && s.Cycle >= inj.StallAtCycle {
			fired = true
			for sim.Aborted() == nil {
				time.Sleep(time.Millisecond)
			}
		}
	})
}
