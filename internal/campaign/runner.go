package campaign

// One attempt of one job, from checkpoint discovery to classification.
// Everything failure-prone lives inside attempt(), behind a recover():
// a panicking simulation is an attempt outcome, never a dead process.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
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
	attemptRetry                       // failed; spends retry budget
	attemptSuspend                     // graceful shutdown; no budget spent
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

	e.mu.Lock()
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
	case attemptRetry:
		j.failures++
		if j.failures >= j.maxAttempts(e.opts.MaxAttempts) {
			j.state = jobDead
			j.outcome = OutcomeDead
			j.errMsg = out.err.Error()
			rec = Record{Type: RecDead, Job: spec.ID, Outcome: OutcomeDead, Error: j.errMsg}
			e.logf("job %s: retry budget exhausted after %d failures (%v)", spec.ID, j.failures, out.err)
		} else {
			j.state = jobWaiting
			delay := e.backoffDelay(spec.ID, j.failures)
			j.notBefore = time.Now().Add(delay)
			rec = Record{Type: RecFail, Job: spec.ID, Attempt: j.failures,
				Error: out.err.Error(), ElapsedMS: elapsedMS}
			e.logf("job %s: attempt %d failed (%v), retry in %v", spec.ID, starts, out.err, delay.Round(time.Millisecond))
		}
	}
	e.mu.Unlock()
	if err := e.journal.Append(rec); err != nil {
		e.logf("journal: %v", err)
	}
	e.cond.Broadcast()
}

// attempt runs the simulation once: restore from the newest valid
// checkpoint (quarantining corrupt ones) or start fresh, wire the
// heartbeat / deadline / cancellation / injection hooks, run, and
// classify how it ended. A panic anywhere inside is converted to a
// retryable failure by the deferred recover.
func (e *Engine) attempt(ctx context.Context, j *job, spec Spec, starts int, elapsed time.Duration) (out attemptResult) {
	defer func() {
		if p := recover(); p != nil {
			out = attemptResult{kind: attemptRetry,
				err: fmt.Errorf("campaign: job %s panicked: %v", spec.ID, p)}
		}
	}()

	if spec.Deadline > 0 && spec.Deadline-elapsed <= 0 {
		return attemptResult{kind: attemptDeadline, err: errDeadline}
	}

	dir := e.jobDir(spec.ID)
	sim, at, release, err := e.openSim(spec, dir)
	if err != nil {
		return attemptResult{kind: attemptRetry, err: err}
	}
	defer release()
	defer sim.Close()
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
	sim.SetProgress(e.opts.Heartbeat, func(cycle int64) { j.beat.tick(cycle) })
	if spec.Deadline > 0 {
		t := time.AfterFunc(spec.Deadline-elapsed, func() { sim.Abort(errDeadline) })
		defer t.Stop()
	}
	if spec.Inject.armed() && starts == 1 {
		armInjection(sim, spec.Inject)
	}

	var res core.Result
	var merr error
	if at == atStart && spec.Pretrain {
		if merr = sim.Pretrain(); merr == nil {
			// Every later job of this (config, scheme), and every retry of
			// this one, starts from the file instead of the phase.
			path := e.pretrainPath(spec)
			if serr := sim.SaveSnapshot(path); serr != nil {
				e.logf("job %s: pre-trained state not kept: %v", spec.ID, serr)
			} else {
				e.logf("job %s: pre-trained state kept as %s", spec.ID, filepath.Base(path))
			}
		}
		release()
	}
	switch {
	case merr != nil:
	case resumed:
		res, merr = sim.ResumeMeasure()
	default:
		events, terr := spec.Trace.Events(spec.Config)
		if terr != nil {
			return attemptResult{kind: attemptRetry, err: terr}
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
			return attemptResult{kind: attemptRetry, recovered: resumed, err: merr}
		default: // graceful shutdown (context cancellation)
			return attemptResult{kind: attemptSuspend, recovered: resumed, err: merr}
		}
	}

	outcome, iv, cerr := Classify(res, merr, sim.Network())
	if cerr != nil {
		return attemptResult{kind: attemptRetry, recovered: resumed, err: cerr}
	}
	detail := FormatDetail(sim.Network(), res)
	if outcome == OutcomeWatchdog {
		e.logf("%s", iv.Report())
		if spec.Bisect {
			if msg := sim.Bisect(); msg != "" {
				e.logf("job %s: %s", spec.ID, msg)
			}
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

// openSim returns the job's simulation at the latest point a file can put
// it: its own newest valid checkpoint; else, for a job that pre-trains,
// the state at the end of pre-training that an earlier job or attempt of
// the same (config, scheme) left in the campaign directory; else a fresh
// build. Pre-training reads nothing of the trace that follows it, so that
// state serves every such job (DESIGN.md §21).
//
// One attempt at a time works on a (config, scheme)'s pre-training: a
// fresh build is returned holding that claim, which release gives up
// (harmless to call again, a no-op for the other two starts) once the
// caller has pre-trained and saved — the attempts that queued behind it
// then restore instead of repeating the phase.
func (e *Engine) openSim(spec Spec, dir string) (sim *core.Sim, at simStart, release func(), err error) {
	noClaim := func() {}
	if spec.SnapshotEvery > 0 {
		snaps, err := core.ListSnapshots(dir)
		if err != nil {
			return nil, 0, nil, err
		}
		for _, path := range snaps {
			if sim, err := e.restore(spec.ID, path); sim != nil || err != nil {
				return sim, atCheckpoint, noClaim, err
			}
		}
	}
	release = noClaim
	if spec.Pretrain {
		path := e.pretrainPath(spec)
		mu := e.pretrainClaim(path)
		mu.Lock()
		release = sync.OnceFunc(mu.Unlock)
		if sim, err := e.restore(spec.ID, path); sim != nil || err != nil {
			release()
			if sim != nil {
				e.logf("job %s: starts from pre-trained state %s", spec.ID, filepath.Base(path))
			}
			return sim, atPretrained, noClaim, err
		}
	}
	if sim, err = core.NewSim(spec.Config, core.Scheme(spec.Scheme)); err != nil {
		release()
		return nil, 0, nil, err
	}
	return sim, atStart, release, nil
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
	h := sha256.New()
	// Config holds only JSON-encodable fields; Validate already accepted it.
	_ = json.NewEncoder(h).Encode(spec.Config)
	h.Write([]byte(spec.Scheme))
	return filepath.Join(e.dir, fmt.Sprintf("pretrain-%x.rlns", h.Sum(nil)[:12]))
}

// pretrainClaim returns the lock that serializes work on one pre-trained
// state file.
func (e *Engine) pretrainClaim(path string) *sync.Mutex {
	e.mu.Lock()
	defer e.mu.Unlock()
	mu := e.pretrains[path]
	if mu == nil {
		mu = new(sync.Mutex)
		e.pretrains[path] = mu
	}
	return mu
}

// armInjection installs the induced-failure observer. Observers are
// observational (fast-forward treats their boundaries as jump targets
// without touching state), so an armed injection that never fires
// leaves the run byte-identical to an unobserved one. The injected
// stall blocks inside the observer until an abort lands — exactly the
// shape of a wedged run from the watchdog's point of view — while
// staying responsive to shutdown.
func armInjection(sim *core.Sim, inj InjectSpec) {
	every := inj.ObserverEvery
	if every <= 0 {
		every = 64
	}
	fired := false
	sim.SetObserver(every, func(s core.Snapshot) {
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
