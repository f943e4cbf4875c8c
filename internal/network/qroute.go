package network

// Per-router Q-routing (the qroute scheme; DESIGN.md §13).
//
// Each router holds a tabular rl.RouteAgent whose Q[dst][port] estimates
// the remaining cycles to deliver toward dst via port. Route computation
// for data packets consults the agent over the *permitted mask* — the
// live output ports whose downstream neighbor is strictly closer to the
// destination on the surviving fabric — and VC allocation confines
// learned choices to the adaptive upper half of the data VCs, keeping
// the lower (escape) half exclusively for deterministic table routes.
// A blocked adaptive head escalates onto the escape class after a
// timeout, so every packet eventually has access to the deadlock-free
// escape sub-network (Duato's criterion); the minimal-productive mask
// makes learned paths loop-free by construction (distance to the
// destination strictly decreases at every hop).
//
// Determinism: exploration draws come from counter-based streams keyed
// (seed, DomainQRoute, router, cycle) and are consumed in RC slot order,
// which is identical across the dense and active-set stepping paths; TD
// updates run inside applyWireOp, in ascending (router, port) order on
// both paths.

import (
	"math/bits"

	"rlnoc/internal/config"
	"rlnoc/internal/detrand"
	"rlnoc/internal/rl"
	"rlnoc/internal/stats"
	"rlnoc/internal/topology"
)

// qrouteState is the network's learned-routing machinery, nil unless the
// qroute scheme is active (a single nil check keeps every other scheme's
// hot path — and the golden pins — untouched).
type qrouteState struct {
	agents []*rl.RouteAgent

	// dist[dst*nodes+v] is v's hop distance to dst over surviving links,
	// -1 when unreachable: the fabric's SurvivingDistances, filled by
	// fillSurvivingDist at construction and on every reroute. The
	// permitted mask reads it to enforce strict productivity.
	dist  []int32
	nodes int

	alpha      float64
	epsilon    float64
	congW      float64
	escTimeout int64

	// Per-router exploration streams, rekeyed lazily per cycle (the
	// outputPort.rng idiom), indexed by router ID.
	rng      []detrand.Stream
	rngCycle []int64

	// Per-router counters (RC phase), and the network-wide TD update
	// count.
	decisions    []int64
	explorations []int64
	escapes      []int64
	fallbacks    []int64
	updates      int64
}

// newQRouteState builds the agents and sizes the distance table, which
// fillSurvivingDist fills.
func newQRouteState(cfg config.Config, topo topology.Topology) *qrouteState {
	nodes := topo.Nodes()
	q := &qrouteState{
		agents:       make([]*rl.RouteAgent, nodes),
		dist:         make([]int32, nodes*nodes),
		nodes:        nodes,
		alpha:        cfg.QRoute.Alpha,
		epsilon:      cfg.QRoute.Epsilon,
		congW:        cfg.QRoute.CongestionWeight,
		escTimeout:   int64(cfg.QRoute.EscapeTimeout),
		rng:          make([]detrand.Stream, nodes),
		rngCycle:     make([]int64, nodes),
		decisions:    make([]int64, nodes),
		explorations: make([]int64, nodes),
		escapes:      make([]int64, nodes),
		fallbacks:    make([]int64, nodes),
	}
	for id := range q.agents {
		q.agents[id] = rl.NewRouteAgent(nodes)
	}
	for i := range q.rngCycle {
		q.rngCycle[i] = -1
	}
	return q
}

// qroutePermittedMask returns the bitmask (bit p = Direction North+p) of
// output ports at router `here` a learned route toward dst may take:
// the port's link must be alive and its downstream neighbor strictly
// closer to dst on the surviving fabric. Strict productivity makes any
// learned path loop-free: the remaining distance decreases every hop.
// Empty when here == dst or dst is unreachable.
func (n *Network) qroutePermittedMask(here, dst int) uint8 {
	q := n.qr
	row := q.dist[dst*q.nodes : (dst+1)*q.nodes]
	d := row[here]
	if d <= 0 {
		return 0
	}
	var mask uint8
	r := n.routers[here]
	for p := 0; p < rl.RoutePorts; p++ {
		op := r.outputs[topology.North+topology.Direction(p)]
		if op.dead || !op.hasDownstream() {
			continue
		}
		if nd := row[op.downstream]; nd >= 0 && nd == d-1 {
			mask |= 1 << uint(p)
		}
	}
	return mask
}

// qroutePortOccupancy returns the fraction of the port's data-VC credits
// currently consumed downstream — the instantaneous congestion signal
// added to the learned cost at selection time.
func (n *Network) qroutePortOccupancy(op *outputPort) float64 {
	if op.credits == nil {
		return 0
	}
	free := 0
	for v := 0; v < n.dataVCs && v < len(op.credits); v++ {
		free += op.credits[v]
	}
	total := n.dataVCs * n.cfg.VCDepth
	if total == 0 {
		return 0
	}
	return 1 - float64(free)/float64(total)
}

// qrouteGreedy picks the permitted port minimizing learned cost plus the
// congestion penalty, lowest port index on ties. mask must be non-empty.
func (n *Network) qrouteGreedy(r *Router, dst int, mask uint8) int {
	q := n.qr
	a := q.agents[r.id]
	best, bestScore := -1, 0.0
	for p := 0; p < rl.RoutePorts; p++ {
		if mask&(1<<uint(p)) == 0 {
			continue
		}
		op := r.outputs[topology.North+topology.Direction(p)]
		score := a.Q(dst, p) + q.congW*n.qroutePortOccupancy(op)
		if best == -1 || score < bestScore {
			best, bestScore = p, score
		}
	}
	return best
}

// qrouteChoose runs the epsilon-greedy policy for a data head at router
// r toward dst. The false return means the permitted mask is empty (no
// productive live port) and the caller must fall back to the table
// route. Called from the RC stage on both stepping paths; draws and
// counters touch only router-indexed state.
func (n *Network) qrouteChoose(r *Router, dst int) (topology.Direction, bool) {
	q := n.qr
	mask := n.qroutePermittedMask(r.id, dst)
	if mask == 0 {
		q.fallbacks[r.id]++
		return 0, false
	}
	q.decisions[r.id]++
	if q.rngCycle[r.id] != n.cycle {
		q.rngCycle[r.id] = n.cycle
		q.rng[r.id] = detrand.New(n.cfg.Seed, detrand.DomainQRoute, uint64(r.id), uint64(n.cycle))
	}
	rng := &q.rng[r.id]
	var p int
	if q.epsilon > 0 && rng.Float64() < q.epsilon {
		// Uniform over the permitted set: pick the k-th set bit.
		k := rng.Intn(bits.OnesCount8(mask))
		m := mask
		for ; k > 0; k-- {
			m &= m - 1
		}
		p = bits.TrailingZeros8(m)
		q.explorations[r.id]++
	} else {
		p = n.qrouteGreedy(r, dst, mask)
	}
	return topology.North + topology.Direction(p), true
}

// qrouteEscalate ages a routed-but-ungranted adaptive head and, past the
// escape timeout, re-routes it onto the deterministic table port where
// VC allocation will serve it from the escape class. Runs in the RC
// stage for every occupied head slot whose VC is already routed.
func (n *Network) qrouteEscalate(r *Router, vc *inputVC) {
	if !vc.qAdaptive || vc.outVC != -1 {
		return
	}
	vc.qWait++
	if vc.qWait < n.qr.escTimeout {
		return
	}
	vc.qAdaptive = false
	vc.qWait = 0
	n.qr.escapes[r.id]++
	r.routeMask[vc.outPort] &^= vc.bit()
	vc.outPort = n.topo.Route(r.id, vc.pkt.Dst)
	if vc.outPort == topology.Unreachable {
		// Cannot happen while the permitted mask was non-empty (a
		// productive port implies a surviving path), but mirror
		// routeCompute's backstop: leave the head unrouted rather than
		// granted toward a sentinel.
		vc.outPort = topology.Local
		vc.routed = false
		r.vaWait &^= vc.bit()
		return
	}
	r.routeMask[vc.outPort] |= vc.bit()
}

// qrouteFeedback applies the Boyan-Littman TD update when a data head is
// accepted at router `down` through input port inPort: the upstream
// router that sent it observes the realized hop cost (cycles since the
// flit entered the upstream buffer) plus the downstream router's own
// best remaining estimate, and pulls its Q entry toward that target.
// Runs only inside applyWireOp, in identical order on both stepping
// paths.
func (n *Network) qrouteFeedback(down int, inPort topology.Direction, hopStart int64, dst int) {
	q := n.qr
	up, ok := n.topo.Neighbor(down, inPort)
	if !ok || n.isDeadRouter(up) {
		return
	}
	action := int(inPort.Opposite() - topology.North)
	if n.routers[up].outputs[inPort.Opposite()].dead {
		return // the link died under the flit; nothing to learn from it
	}
	cost := float64(n.cycle - hopStart)
	if cost < 1 {
		cost = 1
	}
	target := cost
	if down != dst {
		target += q.agents[down].MinQ(dst, n.qroutePermittedMask(down, dst))
	}
	q.agents[up].Update(dst, action, target, q.alpha)
	q.updates++
}

// QRouteEnabled reports whether learned routing is active.
func (n *Network) QRouteEnabled() bool { return n.qr != nil }

// QRouteTelemetry aggregates the learned-routing counters; zero when the
// scheme is not qroute.
func (n *Network) QRouteTelemetry() stats.QRouteTelemetry {
	var t stats.QRouteTelemetry
	if n.qr == nil {
		return t
	}
	q := n.qr
	t.RouterDecisions = append([]int64(nil), q.decisions...)
	for id := range q.decisions {
		t.Decisions += q.decisions[id]
		t.Explorations += q.explorations[id]
		t.Escapes += q.escapes[id]
		t.Fallbacks += q.fallbacks[id]
	}
	t.Updates = q.updates
	return t
}

// QRouteAgent exposes router id's route agent (tests and telemetry).
func (n *Network) QRouteAgent(id int) *rl.RouteAgent {
	if n.qr == nil {
		return nil
	}
	return n.qr.agents[id]
}

// QRoutePermittedMask exposes the permitted-action mask (bit p =
// Direction North+p) for property tests; zero when qroute is off.
func (n *Network) QRoutePermittedMask(here, dst int) uint8 {
	if n.qr == nil {
		return 0
	}
	return n.qroutePermittedMask(here, dst)
}

// QRouteSurvivingDist exposes the surviving-hop distance from v to dst
// (-1 when unreachable or qroute is off).
func (n *Network) QRouteSurvivingDist(v, dst int) int {
	if n.qr == nil {
		return -1
	}
	return int(n.qr.dist[dst*n.qr.nodes+v])
}

// RecoveryLog returns the time-to-recover log, nil unless a hard-fault
// schedule is configured.
func (n *Network) RecoveryLog() *stats.RecoveryLog { return n.recov }
