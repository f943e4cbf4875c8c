package main

// The stepped replica: the representative simulation's trace driven
// through internal/network's public surface only, with the clock read
// around each layer. It is the measure loop of internal/core re-composed
// from outside (due-event injection honouring the source window, Step,
// Quiescent/FastForwardTo), minus warm-up gating and statistics.

import (
	"fmt"
	"time"

	"rlnoc"
	"rlnoc/internal/config"
	"rlnoc/internal/core"
	"rlnoc/internal/network"
	"rlnoc/internal/traffic"
)

// timedController wraps the scheme's controller and accounts the time
// spent deciding, which Step would otherwise absorb.
type timedController struct {
	inner network.Controller
	busy  time.Duration
	calls int64
}

func (c *timedController) Decide(id int, obs network.Observation) network.Mode {
	t := time.Now()
	m := c.inner.Decide(id, obs)
	c.busy += time.Since(t)
	c.calls++
	return m
}

// newReplicaNet builds the network of spec around a timed controller.
func newReplicaNet(spec simSpec) (*network.Network, *timedController, error) {
	cfg := spec.cfg
	tc := &timedController{inner: network.StaticController{Fixed: spec.mode}}
	kind, hasECC := network.ControllerNone, spec.mode.ECCOn()
	if spec.scheme != "" {
		if spec.scheme != core.SchemeRL && spec.scheme != core.SchemeQRoute {
			return nil, nil, fmt.Errorf("replica: scheme %s has no exported controller constructor", spec.scheme)
		}
		cfg.QRoute.Enabled = spec.scheme == core.SchemeQRoute
		tc.inner = core.NewRLController(cfg, cfg.Routers())
		kind, hasECC = network.ControllerRL, true
	}
	net, err := network.New(cfg, tc, kind, hasECC)
	return net, tc, err
}

type replicaStats struct {
	routers                   int
	steps, skipped, cycles    int64
	step, ff, inject, control time.Duration
	decisions                 int64
	packets                   int
}

// sourceQueues replays a trace per source, like core's injector.
type sourceQueues struct {
	queues    [][]traffic.Event
	heads     []int
	remaining int
}

func newSourceQueues(events []traffic.Event, nodes int) *sourceQueues {
	q := &sourceQueues{queues: make([][]traffic.Event, nodes), heads: make([]int, nodes), remaining: len(events)}
	for _, e := range events {
		q.queues[e.Src] = append(q.queues[e.Src], e)
	}
	return q
}

// next is the earliest cycle at which any source has an event pending.
func (q *sourceQueues) next() (int64, bool) {
	var best int64
	ok := false
	for src, ev := range q.queues {
		if h := q.heads[src]; h < len(ev) && (!ok || ev[h].Cycle < best) {
			best, ok = ev[h].Cycle, true
		}
	}
	return best, ok
}

// inject offers every due event to the network, holding a source back
// while it has `window` packets outstanding.
func (q *sourceQueues) inject(net *network.Network, now int64, window int) error {
	for src, ev := range q.queues {
		h := q.heads[src]
		for h < len(ev) && ev[h].Cycle <= now {
			if window > 0 && net.SourceOutstanding(src) >= window {
				break
			}
			if _, err := net.NewDataPacket(ev[h].Src, ev[h].Dst, ev[h].Flits, now); err != nil {
				return err
			}
			h++
			q.remaining--
		}
		q.heads[src] = h
	}
	return nil
}

// leadIn stands in for pre-training in the replica. core's pre-training
// program is unexported, so the replica replays only something shaped like
// its lightest segment: uniform traffic at 0.001 packets per node per
// cycle for a sixth of the pre-training span. It is what makes the
// fast-forward path visible on a workload that pre-trains; a workload
// with PretrainCycles 0 gets no lead-in.
func leadIn(spec simSpec, events []traffic.Event) ([]traffic.Event, error) {
	span := int64(spec.cfg.PretrainCycles) / 6
	if span == 0 {
		return events, nil
	}
	quiet, err := rlnoc.SyntheticTrace(spec.cfg, "uniform", 0.001, span, spec.cfg.Seed*31+900)
	if err != nil {
		return nil, err
	}
	for _, e := range events {
		e.Cycle += span
		quiet = append(quiet, e)
	}
	return quiet, nil
}

// runReplica replays events, after the lead-in, on a fresh network of spec
// until the network drains, recording one aggregated span per layer per
// 1000-cycle epoch.
func runReplica(spec simSpec, events []traffic.Event, tr *tracer) (replicaStats, error) {
	end := tr.begin("network.replica")
	defer end()
	events, err := leadIn(spec, events)
	if err != nil {
		return replicaStats{}, err
	}

	endNew := tr.begin("network.new")
	net, tc, err := newReplicaNet(spec)
	endNew()
	if err != nil {
		return replicaStats{}, err
	}
	defer net.Close()

	st := replicaStats{routers: spec.cfg.Routers(), packets: len(events)}
	q := newSourceQueues(events, spec.cfg.Routers())
	var last int64
	if len(events) > 0 {
		last = events[len(events)-1].Cycle
	}
	capCycle := last + int64(spec.cfg.DrainCycles)

	const epoch = 1000
	var ep replicaStats // the current epoch's share of st
	epStart := time.Now()
	flush := func() {
		id := tr.push("network.step", epStart)
		tr.add("core.control", epStart, ep.control)
		tr.pop(id, ep.step)
		tr.add("network.inject", epStart, ep.inject)
		tr.add("network.ff", epStart, ep.ff)
		st.step += ep.step
		st.control += ep.control
		st.inject += ep.inject
		st.ff += ep.ff
		ep = replicaStats{}
		epStart = time.Now()
	}

	nextFlush := int64(epoch)
	for net.Cycle() < capCycle {
		if q.remaining > 0 {
			t := time.Now()
			if net.Quiescent() {
				target := capCycle
				if c, ok := q.next(); ok && c < target {
					target = c
				}
				before := net.Cycle()
				net.FastForwardTo(target)
				st.skipped += net.Cycle() - before
			}
			ep.ff += time.Since(t)
			if net.Cycle() >= capCycle {
				break
			}
		}
		t := time.Now()
		if err := q.inject(net, net.Cycle(), spec.cfg.SourceWindow); err != nil {
			return st, err
		}
		ep.inject += time.Since(t)

		t = time.Now()
		busy := tc.busy
		if err := net.Step(); err != nil {
			return st, err
		}
		ep.step += time.Since(t)
		ep.control += tc.busy - busy
		st.steps++

		if net.Cycle() >= nextFlush {
			flush()
			nextFlush = net.Cycle() - net.Cycle()%epoch + epoch
		}
		if q.remaining == 0 && net.Drained() {
			break
		}
	}
	flush()
	st.cycles = net.Cycle()
	st.decisions = tc.calls
	st.step -= st.control // Step's self time: the controller runs inside it

	if q.remaining != 0 || !net.Drained() {
		return st, fmt.Errorf("replica: not drained at cycle %d (%d events pending)", net.Cycle(), q.remaining)
	}
	if led := net.ConservationLedger(); !led.Balanced() {
		return st, fmt.Errorf("replica: unbalanced ledger: %s", led)
	}
	return st, nil
}

// steppedWall steps a loaded network for a fixed number of cycles with the
// given Step worker count and returns the wall time: the input to
// network.par_speedup_w2.
func steppedWall(cfg config.Config, events []traffic.Event, cycles int64, workers int) (time.Duration, error) {
	cfg.StepWorkers = workers
	net, err := network.New(cfg, network.StaticController{Fixed: network.Mode2}, network.ControllerNone, true)
	if err != nil {
		return 0, err
	}
	defer net.Close()
	q := newSourceQueues(events, cfg.Routers())
	t0 := time.Now()
	for net.Cycle() < cycles {
		if err := q.inject(net, net.Cycle(), cfg.SourceWindow); err != nil {
			return 0, err
		}
		if err := net.Step(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}
