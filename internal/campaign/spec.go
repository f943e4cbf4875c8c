// Package campaign is the supervised job engine behind long-running
// experiment campaigns (DESIGN.md §17). A campaign is a set of durable
// jobs — one simulation run each — driven by a worker pool that owns
// everything the bare simulator does not: a submit-order queue with
// per-job deadlines and context cancellation, per-job panic isolation
// (a panic ends the job: a deterministic run would panic again),
// a progress-heartbeat watchdog that kills stalled runs snapshot-aware,
// checkpoint-based recovery (a stalled attempt resumes from the latest
// valid `internal/snap` checkpoint instead of cycle 0), and a
// crash-safe journal, the campaign's only durable record, so a SIGKILLed
// supervisor process resumes every in-flight job byte-identically on
// restart.
//
// The figure suite and ablations (rlnoc.RunArms plans, `experiments
// -dir`), the chaos battery and the load sweep (`nocserve -campaign`) all
// run on this one engine, so pre-train-once, fault classification and
// recovery live here exactly once.
package campaign

import (
	"fmt"
	"strings"
	"time"

	"rlnoc/internal/config"
	"rlnoc/internal/core"
	"rlnoc/internal/fault"
	"rlnoc/internal/topology"
	"rlnoc/internal/traffic"
)

// TraceSpec describes a job's injected traffic as generator inputs, not
// events: every attempt regenerates the trace deterministically from
// the tuple, so the journal stays small and a restarted daemon needs
// no side files to rebuild the exact workload.
type TraceSpec struct {
	// Benchmark names a PARSEC-like workload; when set the synthetic
	// fields below are ignored (Cycles and Seed still apply).
	Benchmark string `json:"benchmark,omitempty"`

	Pattern string  `json:"pattern,omitempty"`
	Rate    float64 `json:"rate,omitempty"`
	Cycles  int64   `json:"cycles"`
	Seed    int64   `json:"seed"`
}

// Events materializes the trace for cfg's fabric. Every attempt of every
// arm that names the same tuple gets the same shared slice (DESIGN.md
// §19): callers must not modify it.
func (t TraceSpec) Events(cfg config.Config) ([]traffic.Event, error) {
	topo, bench, err := t.source(cfg)
	if err != nil {
		return nil, err
	}
	if bench != nil {
		return bench.SharedTrace(topo, t.Cycles, cfg.FlitsPerPacket, t.Seed)
	}
	return traffic.SharedProgram(topo, []traffic.Segment{{Pattern: traffic.Pattern(t.Pattern), Rate: t.Rate}},
		cfg.FlitsPerPacket, t.Cycles, t.Seed)
}

// source resolves what Events generates from — cfg's fabric and the named
// benchmark, nil for a synthetic pattern — and runs every check the
// generator makes on its inputs, so Validate refuses a trace no attempt
// could build without building it.
func (t TraceSpec) source(cfg config.Config) (topology.Topology, *traffic.Benchmark, error) {
	topo, err := topology.FromConfig(cfg)
	if err != nil {
		return nil, nil, err
	}
	if t.Benchmark == "" {
		return topo, nil, traffic.CheckSynthetic(traffic.Pattern(t.Pattern), t.Rate, cfg.FlitsPerPacket, t.Cycles)
	}
	b, err := traffic.BenchmarkByName(t.Benchmark)
	if err != nil {
		return nil, nil, err
	}
	return topo, &b, traffic.CheckTrace(t.Cycles, cfg.FlitsPerPacket)
}

// InjectSpec arms deliberate mid-run failures — the supervisor's own
// chaos inputs, used by the recovery tests and the CI induced-failure
// campaign.
type InjectSpec struct {
	// PanicAtCycle panics the run once the measured cycle reaches this
	// value (0 disables) — exercising per-job panic isolation. Like a
	// real bug it fires on every start.
	PanicAtCycle int64 `json:"panic_at_cycle,omitempty"`
	// StallAtCycle blocks the run at this cycle until the progress
	// watchdog kills it (0 disables) — exercising stall detection and
	// snapshot-aware kill/resume. Like a starved host it fires on the
	// job's first start only (the journal remembers starts across
	// process restarts).
	StallAtCycle int64 `json:"stall_at_cycle,omitempty"`
}

func (i InjectSpec) armed() bool { return i.PanicAtCycle > 0 || i.StallAtCycle > 0 }

// Spec is one durable job: a complete, self-contained description of a
// simulation run. Specs are JSON (they live in the campaign journal),
// and everything in them is deterministic — two processes that run the
// same Spec produce byte-identical Results.
type Spec struct {
	// ID names the job uniquely within its campaign; it is also the
	// job's checkpoint directory name.
	ID string `json:"id"`

	// Deadline bounds the job's total running wall-clock time across
	// attempts (0 = none). An expired job is killed snapshot-aware and
	// marked dead with OutcomeDeadline.
	Deadline time.Duration `json:"deadline,omitempty"`

	Config config.Config `json:"config"`
	Scheme string        `json:"scheme"`
	Label  string        `json:"label"`
	// Pretrain runs the synthetic pre-training phase before measuring
	// (the full methodology). Chaos probes skip it. The phase runs once per
	// (Config, Scheme) in a campaign: every other such job, and every
	// resumed one, forks the state the first ends it in, which is also kept as
	// pretrain-<hash>.rlns in the campaign directory for a later process.
	Pretrain bool      `json:"pretrain,omitempty"`
	Trace    TraceSpec `json:"trace"`

	// SnapshotEvery checkpoints the run every N measured cycles into the
	// job's directory; recovery resumes from the latest valid checkpoint.
	// 0 disables — then a resumed job restarts the measured phase. A run an
	// invariant watchdog ends logs the command that replays it from its
	// latest checkpoint with flit-level event capture
	// (Sim.ReplayCommand).
	SnapshotEvery int64 `json:"snapshot_every,omitempty"`

	Inject InjectSpec `json:"inject,omitempty"`
}

// Validate rejects specs the engine cannot run. The ID names the job's
// directory under <campaign>/jobs, so it must be a single path element:
// specs also arrive from the journal on disk. The config as its scheme
// runs it (core.SchemeConfig), the trace and a hard-fault schedule get the
// checks the run makes before it starts, so a job no attempt could start
// is refused here rather than run.
func (s Spec) Validate() error {
	switch {
	case s.ID == "":
		return fmt.Errorf("campaign: spec has no ID")
	case s.ID == "." || s.ID == ".." || strings.ContainsAny(s.ID, "/\\\x00"):
		return fmt.Errorf("campaign: spec ID %q is not a single path element", s.ID)
	case s.SnapshotEvery < 0:
		return fmt.Errorf("campaign: spec %s: negative snapshot_every %d", s.ID, s.SnapshotEvery)
	case s.Deadline < 0:
		return fmt.Errorf("campaign: spec %s: negative deadline %v", s.ID, s.Deadline)
	}
	scheme, err := core.ParseScheme(s.Scheme)
	if err != nil {
		return fmt.Errorf("campaign: spec %s: %w", s.ID, err)
	}
	cfg := core.SchemeConfig(s.Config, scheme)
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("campaign: spec %s: %w", s.ID, err)
	}
	topo, _, err := s.Trace.source(s.Config)
	if err != nil {
		return fmt.Errorf("campaign: spec %s: trace: %w", s.ID, err)
	}
	if s.Config.HardFaults != "" {
		if _, err := fault.HardSchedule(s.Config.HardFaults, topo); err != nil {
			return fmt.Errorf("campaign: spec %s: %w", s.ID, err)
		}
	}
	return nil
}

// Job terminal outcomes. The first four are the chaos battery's
// classification of how a run ended (see Classify); the rest are
// supervisor verdicts about the job itself.
const (
	// OutcomeDrained: all traffic delivered, conservation ledger balanced.
	OutcomeDrained = "drained"
	// OutcomeBudget: cycle budget hit with the ledger balanced — a slow
	// but honest network (legitimate under a hostile kill schedule).
	OutcomeBudget = "budget"
	// OutcomeWatchdog: an armed invariant check terminated the run with
	// the ledger balanced — the failure was detected, not silent.
	OutcomeWatchdog = "watchdog"
	// OutcomeWedged: the run ended with an unbalanced conservation
	// ledger — flits were silently lost or double-counted.
	OutcomeWedged = "wedged"
	// OutcomeDeadline: the job's wall-clock deadline expired.
	OutcomeDeadline = "deadline"
	// OutcomeDead: an attempt failed (a panic, an unexpected error, a
	// second stall) without a completed run.
	OutcomeDead = "dead"
)

// JobResult is a job's terminal record.
type JobResult struct {
	ID      string `json:"id"`
	Outcome string `json:"outcome"`
	// Detail is the one-line diagnostic surface (dead routers,
	// unreachable pairs, latency, drop reasons, recovery times, ledger).
	Detail string `json:"detail,omitempty"`
	// Err carries the final error for dead jobs.
	Err string `json:"err,omitempty"`
	// Attempts counts failed attempts, a dead job's last one included.
	Attempts int `json:"attempts"`
	// Recovered reports whether any attempt resumed from a checkpoint.
	Recovered bool `json:"recovered"`

	Result core.Result `json:"result"`
}

// JobStatus is a point-in-time view of one job for the status surface.
type JobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"` // pending, running, done, dead
	Attempts int    `json:"attempts"`
	Starts   int    `json:"starts"`
	Cycle    int64  `json:"cycle,omitempty"` // last heartbeat cycle while running
	Outcome  string `json:"outcome,omitempty"`
	Detail   string `json:"detail,omitempty"`
}
