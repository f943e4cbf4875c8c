package rl

// RouteAgent is the per-router tabular Q-routing agent (Boyan & Littman,
// "Packet Routing in Dynamically Changing Networks", NIPS 1993) used by
// the qroute scheme. Unlike the mode-control Agent, whose Q-values are
// discounted rewards to maximize, a RouteAgent's Q[dst][port] estimates
// the remaining cost (cycles) to deliver a packet to dst via port — the
// policy picks the argmin, and the TD update pulls the entry toward the
// observed one-hop cost plus the downstream router's own best estimate.
//
// The agent is deliberately passive: it holds no RNG and draws no
// randomness. Exploration is the caller's job (the network draws from a
// counter-based detrand stream keyed on (seed, DomainQRoute, router,
// cycle)), which keeps the learned-routing path bit-identical across
// router traversal orders.
type RouteAgent struct {
	q []float64 // destinations x RoutePorts, row-major; cost estimates
}

// RoutePorts is the number of candidate output ports a RouteAgent ranks:
// the four mesh/torus directions (North..West). Local ejection is never
// a learned choice — route computation short-circuits it.
const RoutePorts = 4

// NewRouteAgent returns a zero-initialized agent over dests destinations.
// Zero-init is optimistic (every route looks free), so early traffic
// explores broadly before estimates tighten.
func NewRouteAgent(dests int) *RouteAgent {
	return &RouteAgent{q: make([]float64, dests*RoutePorts)}
}

// Q returns the cost estimate for routing toward dst via port index
// p (0..RoutePorts-1, i.e. Direction-1 for North..West).
func (a *RouteAgent) Q(dst, p int) float64 { return a.q[dst*RoutePorts+p] }

// Best returns the permitted port index with the lowest cost estimate,
// breaking ties toward the lowest index for determinism. mask bit p set
// means port p is permitted. Returns -1 when the mask is empty.
func (a *RouteAgent) Best(dst int, mask uint8) int {
	best, bestQ := -1, 0.0
	row := a.q[dst*RoutePorts : dst*RoutePorts+RoutePorts]
	for p := 0; p < RoutePorts; p++ {
		if mask&(1<<p) == 0 {
			continue
		}
		if best == -1 || row[p] < bestQ {
			best, bestQ = p, row[p]
		}
	}
	return best
}

// MinQ returns the lowest cost estimate over the permitted ports, or 0
// when the mask is empty (no information beats stale information).
func (a *RouteAgent) MinQ(dst int, mask uint8) float64 {
	if p := a.Best(dst, mask); p >= 0 {
		return a.Q(dst, p)
	}
	return 0
}

// routeAlpha is the Q-routing step size. Hop costs are small integers (a
// few cycles), so a larger step than mode control's converges within a
// chaos window.
const routeAlpha float64 = 0.3

// Update pulls Q[dst][p] toward target with step size routeAlpha:
// Q <- (1-routeAlpha)Q + routeAlpha*target. target is the observed hop
// cost plus the downstream router's MinQ toward dst (zero at the
// destination).
func (a *RouteAgent) Update(dst, p int, target float64) {
	i := dst*RoutePorts + p
	a.q[i] += routeAlpha * (target - a.q[i])
}
