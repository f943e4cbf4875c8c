package core

import (
	"rlnoc/internal/config"
	"rlnoc/internal/network"
	"rlnoc/internal/rl"
	"rlnoc/internal/snap"
	"rlnoc/internal/topology"
)

// RLPortController is the finer-granularity variant of the proposed
// controller: one Q-learning agent per output channel (4 per router)
// instead of one per router, matching the per-link granularity of the
// ECC-Link enable hardware (Fig. 3). Channel agents share the router's
// latency/power reward but see their own channel's utilization, NACK rate
// and residual-corruption rate, and gate their own link independently.
// It is the SchemeRLPerPort arm of the granularity ablation.
type RLPortController struct {
	agents []*rl.Agent // routers x 4, North..West
	disc   rl.Discretizer
	mask   uint8 // config.RLConfig.ModeMask
}

// NewRLPortController builds one agent per output channel — the agent
// table spans the same dense per-(router, port) slot space the fault
// model keys on (topology.LinkSlots/LinkIndex) — with a shared Q-table
// if configured.
func NewRLPortController(cfg config.Config, routers int) *RLPortController {
	n := topology.LinkSlots(routers)
	var agents []*rl.Agent
	if cfg.RL.SharedTable {
		agents = rl.NewSharedAgents(cfg.RL, n, cfg.Seed*31+600)
	} else {
		agents = make([]*rl.Agent, n)
		for i := range agents {
			agents[i] = rl.NewAgent(cfg.RL, cfg.Seed*31+600+int64(i)*104729)
		}
	}
	return &RLPortController{agents: agents, disc: rl.DefaultDiscretizer(), mask: cfg.RL.ModeMask}
}

// Decide implements Controller (used only for the cycle-0 initialization,
// where the zero-valued Q-table yields Mode 0 per the paper).
func (c *RLPortController) Decide(id int, obs network.Observation) network.Mode {
	modes := c.DecidePorts(id, obs)
	max := network.Mode0
	for _, m := range modes {
		if m > max {
			max = m
		}
	}
	return max
}

// DecidePorts implements PortController.
func (c *RLPortController) DecidePorts(id int, obs network.Observation) [4]network.Mode {
	base := Reward(obs.WindowLatency, obs.ControlPowerW)
	if obs.NetMeanReward > 0 {
		base /= obs.NetMeanReward
	}
	var modes [4]network.Mode
	for port := 0; port < 4; port++ {
		po := obs.Ports[port]
		if !po.Connected {
			modes[port] = network.Mode0
			continue
		}
		s := c.disc.Discretize(rl.Features{
			BufferUtilization: obs.Features.BufferUtilization,
			InputLinkUtil:     obs.Features.InputLinkUtil,
			OutputLinkUtil:    po.Util,
			InputNACKRate:     po.NACKRate,
			OutputNACKRate:    obs.Features.OutputNACKRate,
			TemperatureC:      obs.Features.TemperatureC,
		})
		r := base / (1 + reliabilityWeight*po.ResidualRate)
		agent := c.agents[topology.LinkIndex(id, topology.North+topology.Direction(port))]
		modes[port] = network.Mode(allowed(c.mask, agent.Step(s, r)))
	}
	return modes
}

// Agents exposes the channel agents.
func (c *RLPortController) Agents() []*rl.Agent { return c.agents }

// SetEpsilon overrides every channel agent's exploration rate.
func (c *RLPortController) SetEpsilon(eps float64) {
	for _, a := range c.agents {
		a.SetEpsilon(eps)
	}
}

// Snap walks the channel agents (snapAgents); the discretizer and the
// mask are config-derived. Decoding overwrites a freshly constructed
// controller.
func (c *RLPortController) Snap(cd *snap.Codec) error {
	cd.Section("RPCT")
	return snapAgents(cd, c.agents)
}
