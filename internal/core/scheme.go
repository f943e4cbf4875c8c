// Package core implements the paper's primary contribution: the proactive
// fault-tolerant control framework. It provides the four schemes the
// evaluation compares — the reactive CRC baseline, the static ARQ+ECC
// router, the supervised decision-tree controller (DiTomaso et al.), and
// the proposed per-router reinforcement-learning controller — plus the
// phase-structured simulation driver (pre-train, warm-up, measure, drain)
// that reproduces the paper's methodology.
package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"rlnoc/internal/config"
	"rlnoc/internal/dt"
	"rlnoc/internal/network"
	"rlnoc/internal/rl"
	"rlnoc/internal/snap"
)

// Scheme names a fault-tolerant design under evaluation.
type Scheme string

// The four schemes of the paper's figures, in bar order.
const (
	// SchemeCRC is the reactive baseline: error detection only at the
	// destination NI, full end-to-end packet retransmission on failure.
	SchemeCRC Scheme = "crc"
	// SchemeARQ is the static ARQ+ECC router: per-hop SECDED with
	// link-level retransmission, always on.
	SchemeARQ Scheme = "arq-ecc"
	// SchemeDT is the supervised decision-tree controller: a regression
	// tree predicts the link error rate and thresholds pick the mode;
	// the tree is frozen after pre-training.
	SchemeDT Scheme = "dt"
	// SchemeRL is the proposed per-router Q-learning controller.
	SchemeRL Scheme = "rl"
)

// SchemeQRoute extends the paper's four schemes with per-router
// Q-routing: the RL mode controller of SchemeRL plus learned next-hop
// selection (Boyan-Littman Q-routing over minimal productive ports, with
// a table-routed escape VC class for deadlock freedom; DESIGN.md §13).
// It is kept out of Schemes() so the paper's figures, suite and golden
// pins stay exactly four bars.
const SchemeQRoute Scheme = "qroute"

// StaticScheme names the arm whose routers are all pinned to mode m, e.g.
// "static-mode2-preretx": the static-mode ablation's arms, and the oracle
// a learned controller's regret is measured against.
func StaticScheme(m network.Mode) Scheme { return Scheme("static-" + m.String()) }

// Schemes returns all schemes in the paper's presentation order.
func Schemes() []Scheme { return []Scheme{SchemeCRC, SchemeARQ, SchemeDT, SchemeRL} }

// AllSchemes returns every scheme the simulator implements: the paper's
// four plus the qroute extension.
func AllSchemes() []Scheme { return append(Schemes(), SchemeQRoute) }

// schemeSpec is what a scheme name builds: the controller, its
// controller-energy kind, and whether the routers carry ECC hardware.
type schemeSpec struct {
	name   Scheme
	kind   network.ControllerKind
	hasECC bool
	build  func(cfg config.Config) network.Controller
}

// schemeTable is the one place a scheme name becomes a controller:
// ParseScheme accepts exactly these names, and NewSim — so also a restore,
// from the name its snapshot carries — builds from them.
var schemeTable = func() []schemeSpec {
	static := func(m network.Mode) func(config.Config) network.Controller {
		return func(config.Config) network.Controller { return network.StaticController{Fixed: m} }
	}
	perRouter := func(cfg config.Config) network.Controller { return NewRLController(cfg, cfg.Routers()) }
	table := []schemeSpec{
		{SchemeCRC, network.ControllerNone, false, static(network.Mode0)},
		{SchemeARQ, network.ControllerNone, true, static(network.Mode1)},
		{SchemeDT, network.ControllerDT, true, func(cfg config.Config) network.Controller { return NewDTController(cfg, cfg.Routers()) }},
		{SchemeRL, network.ControllerRL, true, perRouter},
		// Same mode controller as SchemeRL: chaos head-to-heads then isolate
		// the routing policy as the only difference.
		{SchemeQRoute, network.ControllerRL, true, perRouter},
	}
	for m := network.Mode0; m < network.NumModes; m++ {
		table = append(table, schemeSpec{StaticScheme(m), network.ControllerNone, m.ECCOn(), static(m)})
	}
	return table
}()

// ParseScheme converts a string to a Scheme: any name in the scheme
// table, the figures' five and the ablation arms alike.
func ParseScheme(s string) (Scheme, error) {
	names := make([]string, len(schemeTable))
	for i, spec := range schemeTable {
		if string(spec.name) == s {
			return spec.name, nil
		}
		names[i] = string(spec.name)
	}
	return "", fmt.Errorf("core: unknown scheme %q (want %s)", s, strings.Join(names, "|"))
}

// reliabilityWeight scales the residual-corruption rate in the RL reward.
// It restores the cost a Mode 0 router externalizes: the end-to-end
// retransmission its corruption triggers lands mostly on other routers'
// latency and energy, plus congestion knock-ons and core stalls the
// zero-load analytic model cannot see. Calibrated empirically so the
// Mode 0 / Mode 1 reward crossover lands near p ~ 2e-3, where the
// measured static-mode sweep shows ECC starting to win end to end; in
// the reward's units Mode 1 costs ~1.75x Mode 0 on a busy link, so
// 1 + k * 0.002 = 1.75 gives k in the several-hundred range. Clean links
// (p <= a few 1e-4) keep a comfortable Mode 0 margin either way.
const reliabilityWeight = 400

// featureCount is the length of the decision tree's feature vector.
const featureCount = 6

// featureVector flattens the Table-I features for the decision tree.
func featureVector(f rl.Features) [featureCount]float64 {
	return [featureCount]float64{
		f.BufferUtilization,
		f.InputLinkUtil,
		f.OutputLinkUtil,
		f.InputNACKRate,
		f.OutputNACKRate,
		f.TemperatureC,
	}
}

// --- RL controller --------------------------------------------------------

// RLController is the proposed controller: one Q-learning agent per
// router, epsilon-greedy over the four operation modes, rewarded with
// 1/(latency x power) per Eq. (3).
type RLController struct {
	agents []*rl.Agent
	disc   rl.Discretizer
	mask   uint8 // config.RLConfig.ModeMask

	// Telemetry: decisions per mode and the reward observed after each
	// mode (credited to the previous epoch's action).
	decideCount [int(network.NumModes)]int64
	rewardSum   [int(network.NumModes)]float64
	rewardCount [int(network.NumModes)]int64
	prevAction  []int
}

// NewRLController builds the per-router agents (shared Q-table if
// configured).
func NewRLController(cfg config.Config, routers int) *RLController {
	var agents []*rl.Agent
	if cfg.RL.SharedTable {
		agents = rl.NewSharedAgents(cfg.RL, routers, cfg.Seed*31+500)
	} else {
		agents = make([]*rl.Agent, routers)
		for i := range agents {
			agents[i] = rl.NewAgent(cfg.RL, cfg.Seed*31+500+int64(i)*7919)
		}
	}
	prev := make([]int, routers)
	for i := range prev {
		prev[i] = -1
	}
	return &RLController{agents: agents, disc: rl.DefaultDiscretizer(), mask: cfg.RL.ModeMask,
		prevAction: prev}
}

// allowed steps action down toward cheaper modes until mask permits it (a
// zero mask permits all four; config.Validate keeps every bit in range).
func allowed(mask uint8, action int) int {
	if mask != 0 {
		for (mask>>uint(action))&1 == 0 {
			action = (action + 3) % int(network.NumModes)
		}
	}
	return action
}

// PolicyDump renders the most-visited states of router 0's Q-table with
// their Q-rows and greedy action — a debugging view of what the policy
// learned. A state's visits are the TD updates the table applied to it.
func (c *RLController) PolicyDump(top int) string {
	type sv struct {
		s rl.State
		n int64
	}
	var all []sv
	a := c.agents[0]
	a.Visits(func(s rl.State, n int64) { all = append(all, sv{s, n}) })
	sort.SliceStable(all, func(i, j int) bool { return all[i].n > all[j].n })
	if top > len(all) {
		top = len(all)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "distinct states visited: %d\n", len(all))
	fmt.Fprintf(&b, "%-34s %8s  %-8s %s\n", "state(buf,in,out,inN,outN,temp)", "visits", "greedy", "Q-row")
	for _, e := range all[:top] {
		fmt.Fprintf(&b, "(%d,%d,%d,%d,%d,%d)%24s %8d  mode%-4d [%.2f %.2f %.2f %.2f]\n",
			e.s.Buf, e.s.InLink, e.s.OutLink, e.s.InNACK, e.s.OutNACK, e.s.Temp, "",
			e.n, a.Greedy(e.s),
			a.Q(e.s, 0), a.Q(e.s, 1), a.Q(e.s, 2), a.Q(e.s, 3))
	}
	return b.String()
}

// Decide implements network.Controller.
func (c *RLController) Decide(id int, obs network.Observation) network.Mode {
	s := c.disc.Discretize(obs.Features)
	r := rl.Reward(obs.WindowLatency, obs.ControlPowerW)
	if obs.NetMeanReward > 0 {
		// Advantage-style normalization: dividing by the network-wide
		// mean reward cancels epoch-wide fluctuations (traffic phases,
		// thermal drift) that are shared across all actions and would
		// otherwise dominate the per-action signal.
		r /= obs.NetMeanReward
	}
	// Reliability term (Section IV.A: the return is a function of energy,
	// performance *and reliability*): corrupted flits this router let
	// through on ECC-bypassed links cost a full end-to-end packet
	// retransmission each — a cost otherwise diluted across the packet's
	// whole path and invisible to the guilty router's own latency/power.
	r /= 1 + reliabilityWeight*obs.ResidualErrorRate
	if prev := c.prevAction[id]; prev >= 0 {
		c.rewardSum[prev] += r
		c.rewardCount[prev]++
	}
	action := allowed(c.mask, c.agents[id].Step(s, r))
	c.decideCount[action]++
	c.prevAction[id] = action
	return network.Mode(action)
}

// ResetTelemetry zeroes the decision/reward counters (called at the start
// of the measurement phase so reports reflect testing-phase behavior).
func (c *RLController) ResetTelemetry() {
	c.decideCount = [int(network.NumModes)]int64{}
	c.rewardSum = [int(network.NumModes)]float64{}
	c.rewardCount = [int(network.NumModes)]int64{}
}

// Telemetry returns, per mode, how often it was chosen and the mean
// reward observed in the epoch following it.
func (c *RLController) Telemetry() (counts [int(network.NumModes)]int64, meanReward [int(network.NumModes)]float64) {
	counts = c.decideCount
	for m := range meanReward {
		if c.rewardCount[m] > 0 {
			meanReward[m] = c.rewardSum[m] / float64(c.rewardCount[m])
		}
	}
	return counts, meanReward
}

// SetEpsilon overrides every agent's exploration rate (used to anneal
// exploration when the measured testing phase begins).
func (c *RLController) SetEpsilon(eps float64) {
	for _, a := range c.agents {
		a.SetEpsilon(eps)
	}
}

// --- DT controller --------------------------------------------------------

// DTController is the supervised baseline. During pre-training it applies
// random modes from {0,1,2} (Mode 3 suppresses the very errors being
// labeled) while recording (features -> measured error rate) samples; a
// call to FinishTraining fits the regression tree and drops the training
// set, after which the frozen tree picks each mode (dt.Tree.Mode).
type DTController struct {
	collecting bool
	rng        *rand.Rand
	src        *snap.CountingSource
	samples    []dt.Sample // the training set, while collecting
	prevFeat   [][]float64 // each router's unlabeled features, while collecting
	tree       *dt.Tree
	opts       dt.Options

	decideCount [int(network.NumModes)]int64
}

// NewDTController builds a collecting controller for `routers` routers.
func NewDTController(cfg config.Config, routers int) *DTController {
	src := snap.NewCountingSource(cfg.Seed*31 + 700)
	return &DTController{
		collecting: true,
		rng:        rand.New(src),
		src:        src,
		prevFeat:   make([][]float64, routers),
		opts:       dt.DefaultOptions(),
	}
}

// Decide implements network.Controller.
func (c *DTController) Decide(id int, obs network.Observation) network.Mode {
	if c.collecting {
		x := featureVector(obs.Features)
		if c.prevFeat[id] != nil {
			c.samples = append(c.samples, dt.Sample{X: c.prevFeat[id], Y: obs.MeasuredErrorRate})
		}
		c.prevFeat[id] = x[:]
		return network.Mode(c.rng.Intn(3)) // explore modes 0..2
	}
	x := featureVector(obs.Features) // not retained, so it stays on the stack
	m := c.tree.Mode(x[:])
	c.decideCount[m]++
	return network.Mode(m)
}

// FinishTraining fits the tree on the collected samples, drops them and
// the pending feature vectors, and freezes the controller. It fails if
// pre-training produced no samples.
func (c *DTController) FinishTraining() error {
	if !c.collecting {
		return nil
	}
	tree, err := dt.Train(c.samples, c.opts)
	if err != nil {
		return fmt.Errorf("core: DT pre-training: %w", err)
	}
	c.tree = tree
	c.samples, c.prevFeat = nil, nil
	c.collecting = false
	return nil
}

// Telemetry returns how often the trained policy chose each mode (the
// supervised baseline observes no reward).
func (c *DTController) Telemetry() (counts [int(network.NumModes)]int64, meanReward [int(network.NumModes)]float64) {
	return c.decideCount, meanReward
}

// --- scheme wiring ---------------------------------------------------------

// buildController instantiates the controller, controller-energy kind and
// ECC-hardware flag for a scheme, from the scheme table.
func buildController(scheme Scheme, cfg config.Config) (network.Controller, network.ControllerKind, bool, error) {
	for _, spec := range schemeTable {
		if spec.name == scheme {
			return spec.build(cfg), spec.kind, spec.hasECC, nil
		}
	}
	return nil, network.ControllerNone, false, fmt.Errorf("core: unknown scheme %q", scheme)
}
