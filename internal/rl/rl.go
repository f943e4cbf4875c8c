// Package rl implements the tabular Q-learning machinery of the paper's
// per-router fault-tolerant controller: the Table-I state space with its
// discretization (5 linear bins for buffer/link utilization and
// temperature, 4 log-space bins for NACK rates), an epsilon-greedy policy
// over the four operation modes, and the temporal-difference update
// Q(s,a) <- (1-alpha)Q(s,a) + alpha[r + gamma*max_a' Q(s',a')], with alpha
// decaying in the cell's visit count (learningRate).
//
// The Q-table is sparse (Table): a run visits tens to a few hundred of the
// 10 000 states, so a table holds rows only for the states an update has
// touched, and untouched states read as zero. Snapshots carry those rows
// and nothing for the untouched states (DESIGN.md §15).
package rl

import (
	"math/rand"

	"rlnoc/internal/config"
	"rlnoc/internal/snap"
)

// Bin counts per feature, per the paper: features 1-3 and 6 have 5 bins,
// features 4-5 (NACK rates) have 4.
const (
	BufBins    = 5
	LinkBins   = 5
	NACKBins   = 4
	TempBins   = 5
	NumStates  = BufBins * LinkBins * LinkBins * NACKBins * NACKBins * TempBins
	NumActions = 4
)

// Features is the raw (continuous) per-router observation vector of
// Table I, aggregated over the router's five ports.
type Features struct {
	BufferUtilization float64 // fraction of occupied input VCs, [0,1]
	InputLinkUtil     float64 // flits/cycle averaged over input ports
	OutputLinkUtil    float64 // flits/cycle averaged over output ports
	InputNACKRate     float64 // NACKs received per flit sent, [0,1]
	OutputNACKRate    float64 // NACKs sent per flit received, [0,1]
	TemperatureC      float64 // local tile temperature
}

// State is the discretized observation.
type State struct {
	Buf     uint8 // 0..4
	InLink  uint8 // 0..4
	OutLink uint8 // 0..4
	InNACK  uint8 // 0..3
	OutNACK uint8 // 0..3
	Temp    uint8 // 0..4
}

// Index maps the state to a dense table row.
func (s State) Index() int {
	i := int(s.Buf)
	i = i*LinkBins + int(s.InLink)
	i = i*LinkBins + int(s.OutLink)
	i = i*NACKBins + int(s.InNACK)
	i = i*NACKBins + int(s.OutNACK)
	i = i*TempBins + int(s.Temp)
	return i
}

// Discretizer converts raw features into bins. Utilization and temperature
// bins are linear over the paper's observed ranges (max link utilization
// 0.3 flits/cycle; temperature in [50,100] C); NACK-rate bins are
// log-spaced decades.
type Discretizer struct {
	MaxLinkUtil float64
	TempLoC     float64
	TempHiC     float64
}

// DefaultDiscretizer sets bin ranges from this simulator's observed
// operating envelope (the paper does the same from its own observations:
// temperatures in [50,100] C, link utilization up to 0.3 flits/cycle; our
// thermal and traffic calibration lands in [55,90] C and 0.15
// flits/cycle). Binning outside the live range would collapse the state
// space into one or two bins and starve the policy of information.
func DefaultDiscretizer() Discretizer {
	return Discretizer{MaxLinkUtil: 0.15, TempLoC: 55, TempHiC: 90}
}

func linearBin(v, lo, hi float64, bins int) uint8 {
	if v <= lo {
		return 0
	}
	if v >= hi {
		return uint8(bins - 1)
	}
	b := int(float64(bins) * (v - lo) / (hi - lo))
	if b >= bins {
		b = bins - 1
	}
	return uint8(b)
}

// logBin maps a rate in [0,1] to {0,1,2,3} by decade: <0.1% -> 0,
// <1% -> 1, <10% -> 2, else 3.
func logBin(rate float64) uint8 {
	switch {
	case rate < 1e-3:
		return 0
	case rate < 1e-2:
		return 1
	case rate < 1e-1:
		return 2
	default:
		return 3
	}
}

// Discretize converts raw features to a table state.
func (d Discretizer) Discretize(f Features) State {
	return State{
		Buf:     linearBin(f.BufferUtilization, 0, 1, BufBins),
		InLink:  linearBin(f.InputLinkUtil, 0, d.MaxLinkUtil, LinkBins),
		OutLink: linearBin(f.OutputLinkUtil, 0, d.MaxLinkUtil, LinkBins),
		InNACK:  logBin(f.InputNACKRate),
		OutNACK: logBin(f.OutputNACKRate),
		Temp:    linearBin(f.TemperatureC, d.TempLoC, d.TempHiC, TempBins),
	}
}

// Table is the learned state of one or more agents: per (state, action)
// the Q-value and the visit count. It is sparse. A fixed
// index maps each of the NumStates states to a row of a contiguous slab;
// index 0 is a permanent zero row that every untouched state reads, so
// reads never allocate and only the first update of a state appends its
// row.
type Table struct {
	index [NumStates]uint16 // state -> row in rows; 0 = untouched
	rows  []row             // rows[0] stays zero
}

// row is one state's four actions: 48 bytes (TestRowLayout).
type row struct {
	q      [NumActions]float64
	visits [NumActions]uint32
}

// tableRows is the slab's initial capacity: enough for the states a
// pre-train visits, so the timed run rarely grows it.
const tableRows = 256

func newTable() *Table {
	return &Table{rows: make([]row, 1, tableRows)}
}

// read returns state s's row, the zero row if s is untouched. The
// pointer is valid until the next write.
func (t *Table) read(s int) *row { return &t.rows[t.index[s]] }

// write returns state s's row, appending it on first touch.
func (t *Table) write(s int) *row {
	if t.index[s] == 0 {
		t.rows = append(t.rows, row{})
		t.index[s] = uint16(len(t.rows) - 1)
	}
	return &t.rows[t.index[s]]
}

// Reward implements Eq. (3): the reciprocal of a router's epoch packet
// latency (cycles) times its power (W). Inputs are floored to keep the
// reward finite on idle epochs. The RL controller and the network-wide
// mean it normalizes by both use it.
func Reward(latencyCycles, powerW float64) float64 {
	if latencyCycles < 1 {
		latencyCycles = 1
	}
	if powerW < 1e-4 {
		powerW = 1e-4
	}
	return 1 / (latencyCycles * powerW)
}

// Agent is one per-router tabular Q-learning agent. Not safe for
// concurrent use.
type Agent struct {
	t *Table // possibly shared (NewSharedAgents)

	gamma   float64
	epsilon float64
	rng     *rand.Rand
	src     *snap.CountingSource
	frozen  bool

	hasPrev    bool
	prevState  State
	prevAction int
}

// NewAgent builds an agent with Q-values initialized to zero (per the
// paper's initialization) and a deterministic exploration stream.
func NewAgent(cfg config.RLConfig, seed int64) *Agent {
	return newAgentOn(cfg, seed, newTable())
}

// newAgentOn builds an agent over table t: hyperparameters and the seeded
// exploration stream.
func newAgentOn(cfg config.RLConfig, seed int64, t *Table) *Agent {
	src := snap.NewCountingSource(seed)
	return &Agent{
		t:       t,
		gamma:   cfg.Gamma,
		epsilon: cfg.Epsilon,
		rng:     rand.New(src),
		src:     src,
	}
}

// NewSharedAgents builds n agents that share a single Q-table but keep
// independent exploration streams and state/action histories. Sharing
// multiplies the effective sample rate by n, letting the tabular policy
// converge within simulation-scale pre-training budgets (the paper's
// per-router tables rely on a 1M-cycle pre-train); DESIGN.md documents
// this option and the ablation comparing both variants. Agent i has the
// exploration seed seed+7919i.
func NewSharedAgents(cfg config.RLConfig, n int, seed int64) []*Agent {
	t := newTable()
	agents := make([]*Agent, n)
	for i := range agents {
		agents[i] = newAgentOn(cfg, seed+int64(i)*7919, t)
	}
	return agents
}

// Q returns the Q-value for (s, a).
func (a *Agent) Q(s State, action int) float64 {
	return a.t.read(s.Index()).q[action]
}

// Greedy returns the action with maximal Q-value in state s (ties break
// toward the lowest action index, i.e. the cheapest mode).
func (a *Agent) Greedy(s State) int {
	best, bestV := 0, a.Q(s, 0)
	for act := 1; act < NumActions; act++ {
		if v := a.Q(s, act); v > bestV {
			best, bestV = act, v
		}
	}
	return best
}

// Step closes the previous (state, action) with reward r observed in new
// state s, performs the TD update, then selects and records the next
// action (epsilon-greedy unless frozen). It returns the action to apply.
func (a *Agent) Step(s State, reward float64) int {
	if a.hasPrev && !a.frozen {
		a.update(a.prevState, a.prevAction, reward, s)
	}
	action := a.Greedy(s)
	if !a.frozen && a.epsilon > 0 && a.rng.Float64() < a.epsilon {
		action = a.rng.Intn(NumActions)
	}
	a.prevState, a.prevAction, a.hasPrev = s, action, true
	return action
}

// learningRate is the step size of a cell's n-th TD update: 1/(1 + n/4),
// floored at 0.02. The paper sets alpha = 0.1 and notes it "can be
// reduced over time [for] convergence"; this rate starts near a sample
// average (0.8 at a cell's first update), passes the paper's 0.1 at its
// 36th and keeps the floor from its 196th for non-stationarity.
func learningRate(n uint32) float64 {
	return max(1/(1+float64(n)/4), 0.02)
}

// update applies the temporal-difference rule at the cell's learning
// rate.
func (a *Agent) update(s State, action int, reward float64, next State) {
	nq := &a.t.read(next.Index()).q
	maxNext := nq[0]
	for _, v := range nq[1:] {
		if v > maxNext { // strict: of a tie (-0 and +0) the first stays, as in Greedy
			maxNext = v
		}
	}
	r := a.t.write(s.Index()) // may grow the slab: nq is dead from here
	r.visits[action]++
	alpha := learningRate(r.visits[action])
	r.q[action] = (1-alpha)*r.q[action] + alpha*(reward+a.gamma*maxNext)
}

// Visits calls f for every state the agent's table holds a row for, in
// ascending state order, with the number of TD updates applied to it:
// its visit counts summed over the actions. A shared table counts the
// updates of every agent on it.
func (a *Agent) Visits(f func(s State, updates int64)) {
	t := a.t
	for i, ri := range &t.index {
		if ri == 0 {
			continue
		}
		var n int64
		for _, v := range t.rows[ri].visits {
			n += int64(v)
		}
		f(stateOf(i), n)
	}
}

// stateOf inverts State.Index.
func stateOf(i int) State {
	var s State
	s.Temp, i = uint8(i%TempBins), i/TempBins
	s.OutNACK, i = uint8(i%NACKBins), i/NACKBins
	s.InNACK, i = uint8(i%NACKBins), i/NACKBins
	s.OutLink, i = uint8(i%LinkBins), i/LinkBins
	s.InLink, i = uint8(i%LinkBins), i/LinkBins
	s.Buf = uint8(i)
	return s
}

// Freeze stops learning and exploration; the agent becomes a pure greedy
// policy (used to compare against the frozen-after-pretraining DT
// baseline, and for ablations).
func (a *Agent) Freeze() { a.frozen = true }

// SetEpsilon overrides the exploration rate (e.g. to anneal it).
func (a *Agent) SetEpsilon(eps float64) { a.epsilon = eps }
