package campaign

// The supervised job engine. One Engine owns a campaign directory
// (journal + per-job checkpoint directories), or none — a campaign that
// lives in memory — and a worker pool that drives jobs through the
// recovery state machine:
//
//	pending ──pick──> running ──classified──> done
//	   ^                 │
//	   ├─────────────────┼─ graceful shutdown (suspend snapshot written)
//	   ├─────────────────┼─ first watchdog stall (suspend snapshot written)
//	   │                 │
//	   │                 └─ panic / any other failure / second stall ──> dead
//	  open/restart
//	  (re-queues a job dead of a failure)
//
// A job is a pure function of its Spec, so a failure other than a stall
// (the one host-dependent failure: a starved CPU) would recur at the same
// cycle on a retry; it ends the job at once.
//
// Every submit, start and verdict is journaled before it is acted on, so a
// SIGKILL at any point leaves a journal whose replay reconstructs the
// exact jobs and their states; in-flight work resumes from each job's
// latest valid on-disk checkpoint, byte-identical to the run that was
// interrupted.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rlnoc/internal/core"
	"rlnoc/internal/snap"
)

// ErrStalled is the abort reason the progress watchdog hands a run
// whose heartbeat went quiet: the attempt is killed snapshot-aware and,
// the first time, retried from its latest checkpoint.
var ErrStalled = errors.New("campaign: progress watchdog: run stalled")

// Options configures an Engine.
type Options struct {
	// Dir is the campaign directory (journal, per-job checkpoints,
	// pre-trained states). Empty, the campaign lives in memory: it reads
	// and writes no file, and no later process can resume it.
	Dir string
	// Workers is the job-level parallelism (default 1).
	Workers int
	// Seed is read by nothing: each job's simulation seed lives in its
	// Config. It stays until the benchmark harness stops setting it.
	Seed int64
	// WatchdogAfter kills a running attempt whose progress heartbeat
	// has been silent this long (0 disables the watchdog).
	WatchdogAfter time.Duration
	// Logf receives supervisor diagnostics (nil = silent).
	Logf func(format string, args ...any)
}

type jobState int

const (
	jobPending jobState = iota
	jobRunning
	jobDone
	jobDead
)

func (s jobState) String() string {
	switch s {
	case jobPending:
		return "pending"
	case jobRunning:
		return "running"
	case jobDone:
		return "done"
	default:
		return "dead"
	}
}

// job is the engine's mutable view of one Spec. Fields are guarded by
// Engine.mu except the heartbeat pair, which the running attempt and
// the watchdog exchange through atomics (see heartbeat).
type job struct {
	spec Spec

	state    jobState
	starts   int // attempts ever started, across process restarts
	failures int // failed attempts

	outcome   string
	detail    string
	errMsg    string
	recovered bool
	result    core.Result

	key string // pretrainPath(spec) for a job that pre-trains, else ""

	beat heartbeat
	sim  *core.Sim // non-nil while running; Abort target for the watchdog
}

func (j *job) terminal() bool { return j.state == jobDone || j.state == jobDead }

// Engine is the campaign supervisor. Open one, Submit specs, Run it.
type Engine struct {
	opts    Options
	dir     string
	journal *Journal // nil for a campaign in memory

	mu    sync.Mutex
	cond  *sync.Cond
	jobs  []*job
	byID  map[string]*job
	runCh chan struct{} // closed while Run is active (guards double Run)
	// Pre-trained states by job key (DESIGN.md §21): training maps a key
	// to the job pre-training it, whose key-mates next holds back;
	// pretrained holds the state until no unfinished job of the key remains.
	training   map[string]*job
	pretrained map[string]*core.Checkpoint
}

// Open loads (or initializes) the campaign at opts.Dir: the journal is
// replayed, which submits its jobs again and restores their states, and
// every non-terminal job is queued to resume from its checkpoints. A fresh
// directory starts an empty campaign, and so does an empty Dir, in memory.
func Open(opts Options) (*Engine, error) {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}

	e := &Engine{opts: opts, dir: opts.Dir, byID: map[string]*job{},
		training: map[string]*job{}, pretrained: map[string]*core.Checkpoint{}}
	e.cond = sync.NewCond(&e.mu)
	if e.dir == "" {
		return e, nil
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}

	journal, recs, err := OpenJournal(filepath.Join(e.dir, "journal.log"))
	if err != nil {
		return nil, err
	}
	e.journal = journal
	if err := e.applyJournal(recs); err != nil {
		journal.Close()
		return nil, err
	}
	return e, nil
}

// Dir returns the campaign directory ("" for a campaign in memory).
func (e *Engine) Dir() string { return e.dir }

func (e *Engine) logf(format string, args ...any) {
	if e.opts.Logf != nil {
		e.opts.Logf(format, args...)
	}
}

// addJob validates spec and queues its job; an ID already taken is an
// error.
func (e *Engine) addJob(spec Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if _, dup := e.byID[spec.ID]; dup {
		return fmt.Errorf("campaign: duplicate job ID %q", spec.ID)
	}
	e.queue(spec)
	return nil
}

func (e *Engine) queue(spec Spec) {
	j := &job{spec: spec}
	if spec.Pretrain {
		j.key = e.pretrainPath(spec)
	}
	e.jobs = append(e.jobs, j)
	e.byID[spec.ID] = j
}

// applyJournal replays the records: a submit record adds its job, and the
// lifecycle records after it rebuild the job's state. Submit journals a
// job before it can run, so a record for a job no submit record added
// comes from an older build's directory, which kept its specs beside the
// journal: it is refused, since the campaign it names cannot be rebuilt.
func (e *Engine) applyJournal(recs []Record) error {
	for _, rec := range recs {
		if rec.Type == RecSubmit {
			if rec.Spec == nil {
				return fmt.Errorf("campaign: journal submit record for %q has no spec", rec.Job)
			}
			if err := e.addJob(*rec.Spec); err != nil {
				return err
			}
			continue
		}
		j, ok := e.byID[rec.Job]
		if !ok {
			return fmt.Errorf("campaign: journal %s record for job %q, which no submit record added: the directory predates journaled specs", rec.Type, rec.Job)
		}
		switch rec.Type {
		case RecStart:
			j.starts = rec.Attempt
			j.state = jobPending // in-flight at crash: resume
		case RecFail:
			j.failures = rec.Attempt
			j.state = jobPending
		case RecDone:
			j.state = jobDone
			j.outcome = rec.Outcome
			j.detail = rec.Detail
			j.recovered = rec.Recovered
			if len(rec.Result) > 0 {
				if err := json.Unmarshal(rec.Result, &j.result); err != nil {
					return fmt.Errorf("campaign: journal result for %s: %w", rec.Job, err)
				}
			}
		case RecDead:
			if rec.Outcome == OutcomeDead {
				// A new process runs a dead job again: what failed it may
				// have been the host (a full disk), or a build since fixed.
				j.state, j.failures = jobPending, 0
				continue
			}
			j.state = jobDead
			j.outcome = rec.Outcome
			j.errMsg = rec.Error
		default:
			e.logf("journal: unknown record type %q skipped", rec.Type)
		}
	}
	return nil
}

// Submit adds jobs to the campaign: it validates the batch, journals one
// submit record per new spec in one fsynced append, and only then queues
// them, so a Submit that fails adds nothing. Specs already present (same
// ID and identity) are ignored, so re-submitting a campaign's build over
// a directory is idempotent — the restart path. A campaign in memory
// refuses a spec that checkpoints: it has nowhere to write one.
func (e *Engine) Submit(specs ...Spec) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	batch := map[string]Spec{}
	var recs []Record
	for _, spec := range specs {
		prev, seen := batch[spec.ID]
		if j, ok := e.byID[spec.ID]; ok {
			prev, seen = j.spec, true
		}
		if seen {
			// Same ID must mean the same job, or the campaign dir is
			// being reused for a different experiment.
			if !specEqual(prev, spec) {
				return fmt.Errorf("campaign: job %q already exists with a different spec", spec.ID)
			}
			continue
		}
		if err := spec.Validate(); err != nil {
			return err
		}
		if e.dir == "" && spec.SnapshotEvery > 0 {
			return fmt.Errorf("campaign: spec %s: snapshot_every %d needs a campaign directory", spec.ID, spec.SnapshotEvery)
		}
		batch[spec.ID] = spec
		recs = append(recs, Record{Type: RecSubmit, Job: spec.ID, Spec: &spec})
	}
	if len(recs) == 0 {
		return nil
	}
	if err := e.journal.Append(recs...); err != nil {
		return err
	}
	for _, rec := range recs {
		e.queue(*rec.Spec)
	}
	e.cond.Broadcast()
	return nil
}

func specEqual(a, b Spec) bool { return digest(identity(a)) == digest(identity(b)) }

// ResultsVersion names what this build computes. Every name digest gives —
// a ContentID, a pre-trained state file — is keyed on it and on
// snap.Version, so a change that moves any result (a golden pin) must bump
// it: a directory an older build filled then shares no job or state with
// this one, instead of handing back that build's numbers.
const ResultsVersion = 1

// digest is the SHA-256 of v's JSON (specs are JSON-encodable) under this
// build's ResultsVersion and snapshot format, in hex.
func digest(v any) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d.%d\n", ResultsVersion, snap.Version)
	_ = json.NewEncoder(h).Encode(v)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// identity is spec less the knobs that change no result: SuiteWorkers,
// host-local, so a rerun on another core count is the same job, and the
// ignored StepWorkers (config.Config says why it still exists).
func identity(spec Spec) Spec {
	spec.Config.SuiteWorkers, spec.Config.StepWorkers = 0, 0
	return spec
}

// ContentID names a job by what it computes: prefix, then a digest of its
// identity. A plan named so can grow over one directory (more seeds, more
// benchmarks) and reuse every job it already finished.
func ContentID(prefix string, spec Spec) string {
	spec.ID = ""
	return prefix + "-" + digest(identity(spec))[:16]
}

// next blocks until a job is ready to run (returns the first in submit
// order, marked running), all jobs are terminal (returns nil, false), or
// ctx is done (returns nil, true).
func (e *Engine) next(ctx context.Context) (*job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return nil, true
		}
		var best *job
		open := false
		for _, j := range e.jobs {
			switch j.state {
			case jobPending:
				if e.training[j.key] != nil {
					// Its (config, scheme) is being pre-trained: it waits
					// for that state without holding a worker.
					open = true
					continue
				}
				if best == nil {
					best = j
				}
			case jobRunning:
				open = true
			}
		}
		if best != nil {
			if best.key != "" && e.pretrained[best.key] == nil {
				e.training[best.key] = best // it pre-trains, or finds a file
			}
			best.state = jobRunning
			best.starts++
			best.beat.reset(time.Now())
			return best, false
		}
		if !open {
			return nil, false
		}
		e.cond.Wait()
	}
}

// Run drives the campaign until every job is terminal, or ctx is
// cancelled — the graceful-shutdown path: every running attempt is
// aborted at its next control poll, its state checkpointed, the journal
// flushed, and Run returns ctx.Err() with all unfinished jobs safely
// pending for the next process.
func (e *Engine) Run(ctx context.Context) error {
	e.mu.Lock()
	if e.runCh != nil {
		e.mu.Unlock()
		return fmt.Errorf("campaign: engine already running")
	}
	done := make(chan struct{})
	e.runCh = done
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.runCh = nil
		e.mu.Unlock()
		close(done)
	}()

	// Cancellation must wake blocked workers and abort running sims.
	stopWake := context.AfterFunc(ctx, func() {
		e.mu.Lock()
		for _, j := range e.jobs {
			if j.state == jobRunning && j.sim != nil {
				j.sim.Abort(context.Cause(ctx))
			}
		}
		e.mu.Unlock()
		e.cond.Broadcast()
	})
	defer stopWake()

	if e.opts.WatchdogAfter > 0 {
		wdStop := make(chan struct{})
		defer close(wdStop)
		go e.watchdog(wdStop)
	}

	var wg sync.WaitGroup
	for w := 0; w < e.opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, cancelled := e.next(ctx)
				if j == nil {
					if cancelled {
						return
					}
					// All terminal; wake siblings blocked in next.
					e.cond.Broadcast()
					return
				}
				e.runJob(ctx, j)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// watchdog scans running jobs and aborts any whose heartbeat has been
// silent longer than WatchdogAfter. The abort is cooperative (the cycle
// loop polls every 256 cycles), so a stall inside a single Step — which
// would mean a simulator deadlock, not a slow run — is out of its reach,
// as it is of every other abort.
func (e *Engine) watchdog(stop <-chan struct{}) {
	interval := e.opts.WatchdogAfter / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-ticker.C:
			e.mu.Lock()
			for _, j := range e.jobs {
				if j.state != jobRunning || j.sim == nil {
					continue
				}
				if quiet := now.Sub(j.beat.last()); quiet > e.opts.WatchdogAfter {
					e.logf("watchdog: job %s silent %v at cycle %d, killing", j.spec.ID, quiet.Round(time.Millisecond), j.beat.cycle())
					j.sim.Abort(ErrStalled)
				}
			}
			e.mu.Unlock()
		}
	}
}

// Status returns a point-in-time view of every job, in submit order.
func (e *Engine) Status() []JobStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]JobStatus, 0, len(e.jobs))
	for _, j := range e.jobs {
		st := JobStatus{
			ID:       j.spec.ID,
			State:    j.state.String(),
			Attempts: j.failures,
			Starts:   j.starts,
			Outcome:  j.outcome,
			Detail:   j.detail,
		}
		if j.state == jobRunning {
			st.Cycle = j.beat.cycle()
		}
		out = append(out, st)
	}
	return out
}

// Results returns the terminal record of every finished job, in submit
// order. Jobs still pending or running are omitted.
func (e *Engine) Results() []JobResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []JobResult
	for _, j := range e.jobs {
		if !j.terminal() {
			continue
		}
		out = append(out, JobResult{
			ID:        j.spec.ID,
			Outcome:   j.outcome,
			Detail:    j.detail,
			Err:       j.errMsg,
			Attempts:  j.failures,
			Recovered: j.recovered,
			Result:    j.result,
		})
	}
	return out
}

// Close flushes and closes the journal. Call after Run has returned.
func (e *Engine) Close() error { return e.journal.Close() }
