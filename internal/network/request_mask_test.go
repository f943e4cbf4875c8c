package network

import (
	"bytes"
	"fmt"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/rl"
	"rlnoc/internal/snap"
	"rlnoc/internal/traffic"
)

// agentController drives router modes from per-router Q-learning agents
// with the paper's 1/(latency x power) reward: the rl scheme's mode churn
// without core's controller, which this package cannot import.
type agentController struct {
	agents []*rl.Agent
	disc   rl.Discretizer
}

func (c *agentController) Decide(id int, obs Observation) Mode {
	reward := 1 / (max(obs.WindowLatency, 1) * max(obs.ControlPowerW, 1e-4))
	return Mode(c.agents[id].Step(c.disc.Discretize(obs.Features), reward))
}

// assertRequestMasks recomputes every router's request masks and every
// port's pending-free count from the VC and port fields alone and fails
// on the first disagreement with the maintained copies.
func assertRequestMasks(t *testing.T, n *Network, when string) {
	t.Helper()
	for id, r := range n.routers {
		var route [len(r.routeMask)]uint64
		var vaWait uint64
		for _, in := range r.inputs {
			for _, vc := range in {
				if vc.routed {
					route[vc.outPort] |= 1 << uint(vc.slot)
				}
				if vc.routed && vc.outVC == -1 {
					vaWait |= 1 << uint(vc.slot)
				}
			}
		}
		if route != r.routeMask || vaWait != r.vaWait {
			t.Fatalf("%s, cycle %d, router %d: masks route=%x vaWait=%x, VC state gives route=%x vaWait=%x",
				when, n.cycle, id, r.routeMask, r.vaWait, route, vaWait)
		}
		for _, p := range r.outputs {
			pending := 0
			for _, set := range p.vcPendingFree {
				if set {
					pending++
				}
			}
			if pending != p.pendingFree {
				t.Fatalf("%s, cycle %d, router %d port %v: pending-free count %d, %d VCs pending",
					when, n.cycle, id, p.dir, p.pendingFree, pending)
			}
		}
	}
}

// TestRequestMasksMatchVCState runs loaded 8x8 fabrics through a link
// kill and a router kill and holds the request masks to the VC state
// after every Step, on the sequential and the sharded path, and again on
// a network restored from a mid-run snapshot, whose masks must be rebuilt
// rather than read.
func TestRequestMasksMatchVCState(t *testing.T) {
	const cycles = 1200
	for _, topo := range []string{"mesh", "torus"} {
		for _, scheme := range []string{"arq", "rl", "qroute"} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s-%s-w%d", topo, scheme, workers), func(t *testing.T) {
					cfg := config.Default()
					cfg.Topology = topo
					if topo == "torus" {
						cfg.VCsPerPort = 8 // qroute quarters the data VCs on a wraparound fabric
					}
					cfg.StepWorkers = workers
					cfg.RL.StepCycles = 200
					cfg.QRoute.Enabled = scheme == "qroute"
					cfg.HardFaults = "400:l27.east,700:r36"
					cfg.Checks = "all"

					var ctrl Controller = StaticController{Fixed: Mode1}
					kind := ControllerNone
					if scheme != "arq" {
						nodes := cfg.Width * cfg.Height
						ctrl = &agentController{agents: rl.NewSharedAgents(cfg.RL, nodes, 7), disc: rl.DefaultDiscretizer()}
						kind = ControllerRL
					}
					n, err := New(cfg, ctrl, kind, true)
					if err != nil {
						t.Fatal(err)
					}
					events, err := traffic.Synthetic(n.Topology(), traffic.Uniform, 0.03, cfg.FlitsPerPacket, cycles, 99)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; n.Cycle() < cycles; {
						for ; i < len(events) && events[i].Cycle <= n.Cycle(); i++ {
							e := events[i]
							if _, err := n.NewDataPacket(e.Src, e.Dst, e.Flits, e.Cycle); err != nil {
								t.Fatal(err)
							}
						}
						if err := n.Step(); err != nil {
							t.Fatal(err)
						}
						assertRequestMasks(t, n, "after Step")
						if n.Cycle()%300 == 0 {
							assertRestoredMasks(t, n, cfg, kind)
						}
					}
				})
			}
		}
	}
}

// assertRestoredMasks round-trips n through the snapshot codec into a
// fresh network and checks the rebuilt masks against both the restored
// VC state and the live network's incrementally maintained masks.
func assertRestoredMasks(t *testing.T, n *Network, cfg config.Config, kind ControllerKind) {
	t.Helper()
	var buf bytes.Buffer
	enc := snap.NewEncoder(&buf)
	if err := n.Snap(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(cfg, StaticController{Fixed: Mode0}, kind, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Snap(snap.NewDecoder(&buf)); err != nil {
		t.Fatal(err)
	}
	assertRequestMasks(t, fresh, "after a decoding Snap")
	for id, r := range n.routers {
		fr := fresh.routers[id]
		if fr.routeMask != r.routeMask || fr.vaWait != r.vaWait {
			t.Fatalf("cycle %d, router %d: restored masks route=%x vaWait=%x, live route=%x vaWait=%x",
				n.cycle, id, fr.routeMask, fr.vaWait, r.routeMask, r.vaWait)
		}
	}
}
