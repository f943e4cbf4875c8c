package network

import (
	"bytes"
	"fmt"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/flit"
	"rlnoc/internal/rl"
	"rlnoc/internal/snap"
	"rlnoc/internal/stats"
	"rlnoc/internal/topology"
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
	reward := rl.Reward(obs.WindowLatency, obs.ControlPowerW)
	return Mode(c.agents[id].Step(c.disc.Discretize(obs.Features), reward))
}

// assertRequestMasks recomputes every router's request masks and every
// port's pending-free count from the VC and port fields alone and fails
// on the first disagreement with the maintained copies. The port
// summaries are held to their superset rule: a port with a wire-queue
// entry is in wirePorts, a port with a pending resend or mode switch in
// saAttn (a spurious bit is legal, a missing one hides work). The fill
// register is held to the census (checkFill): its first mask empty, its
// second exactly the occupied slots whose front has HopStart == cycle.
// Every flit has one home (assertFlitHomes).
func assertRequestMasks(t *testing.T, n *Network, when string) {
	t.Helper()
	assertFlitHomes(t, n, when)
	if viols := n.checkFill(n.cycle, nil); len(viols) > 0 {
		t.Fatalf("%s, cycle %d: %s (%d routers off)", when, n.cycle, viols[0].Msg, len(viols))
	}
	for id, r := range n.routers {
		var route [len(r.routeMask)]uint64
		var vaWait uint64
		for i := range r.vcs {
			vc := &r.vcs[i]
			if vc.routed {
				route[vc.outPort] |= 1 << uint(vc.slot)
			}
			if vc.routed && vc.outVC == -1 {
				vaWait |= 1 << uint(vc.slot)
			}
		}
		if route != r.routeMask || vaWait != r.vaWait {
			t.Fatalf("%s, cycle %d, router %d: masks route=%x vaWait=%x, VC state gives route=%x vaWait=%x",
				when, n.cycle, id, r.routeMask, r.vaWait, route, vaWait)
		}
		for _, p := range r.outputs {
			bit := uint8(1) << uint(p.dir)
			if queued := len(p.inflight) + len(p.acks) + len(p.credRet); queued > 0 && r.wirePorts&bit == 0 {
				t.Fatalf("%s, cycle %d, router %d port %v: %d wire-queue entries outside wirePorts %05b",
					when, n.cycle, id, p.dir, queued, r.wirePorts)
			}
			if (p.resendIdx >= 0 || p.targetMode != p.mode) && r.saAttn&bit == 0 {
				t.Fatalf("%s, cycle %d, router %d port %v: resend cursor %d, mode %v -> %v outside saAttn %05b",
					when, n.cycle, id, p.dir, p.resendIdx, p.mode, p.targetMode, r.saAttn)
			}
		}
	}
}

// assertFlitHomes fails on a flit held by two containers: a VC buffer
// slot, a wire entry, a retransmission entry, a reassembly buffer. The
// snapshot codec writes each flit inline at its home, so a second home
// would restore as two distinct flits.
func assertFlitHomes(t *testing.T, n *Network, when string) {
	t.Helper()
	type place struct {
		what     string
		node, at int
	}
	homes := make(map[*flit.Flit]place)
	home := func(f *flit.Flit, at place) {
		if prev, ok := homes[f]; ok {
			t.Fatalf("%s, cycle %d: flit %d.%d is in node %d's %s %d and in node %d's %s %d",
				when, n.cycle, f.PacketID, f.Seq, prev.node, prev.what, prev.at, at.node, at.what, at.at)
		}
		homes[f] = at
	}
	for id, r := range n.routers {
		for v := range r.vcs {
			vc := &r.vcs[v]
			for k := 0; k < int(vc.n); k++ {
				home(*vc.at(r, k), place{"VC slot", id, v})
			}
		}
		for _, p := range r.outputs {
			for i := range p.inflight {
				home(p.inflight[i].f, place{"port wire", id, int(p.dir)})
			}
			for i := range p.unacked {
				home(p.unacked[i].f, place{"port retransmission buffer", id, int(p.dir)})
			}
		}
	}
	for id, ni := range n.nis {
		for pkt, buf := range ni.reasm {
			for _, f := range buf {
				home(f, place{"reassembly of packet", id, int(pkt)})
			}
		}
	}
}

// TestRequestMasksMatchVCState runs loaded 8x8 fabrics through a link
// kill and a router kill and holds the request masks to the VC state, and
// the port summaries to the port state, after every Step, and again on a
// network restored from a mid-run snapshot — whose masks must be rebuilt
// rather than read — at the restore and after each of its next Steps.
// The -w1 suffix is the subtests' historical name (one Step worker, when
// Step could be sharded), kept so their names stay stable.
func TestRequestMasksMatchVCState(t *testing.T) {
	const cycles = 1200
	for _, topo := range []string{"mesh", "torus"} {
		for _, scheme := range []string{"arq", "rl", "qroute"} {
			t.Run(fmt.Sprintf("%s-%s-w1", topo, scheme), func(t *testing.T) {
				cfg := config.Default()
				cfg.Topology = topo
				if topo == "torus" {
					cfg.VCsPerPort = 8 // qroute quarters the data VCs on a wraparound fabric
				}
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

// assertRestoredMasks round-trips n through the snapshot codec into a
// fresh network and checks the rebuilt masks against both the restored
// VC state and the live network's incrementally maintained masks, then
// lets the restored network drain for a while: the conservatively
// refilled summaries must stay supersets while the first visits prune
// them.
func assertRestoredMasks(t *testing.T, n *Network, cfg config.Config, kind ControllerKind) {
	t.Helper()
	fresh := restoredCopy(t, n, cfg, kind)
	assertRequestMasks(t, fresh, "after a decoding Snap")
	for id, r := range n.routers {
		fr := fresh.routers[id]
		if fr.routeMask != r.routeMask || fr.vaWait != r.vaWait || fr.saAttn != r.saAttn || fr.fill != r.fill {
			t.Fatalf("cycle %d, router %d: restored masks route=%x vaWait=%x saAttn=%05b fill=%x, live route=%x vaWait=%x saAttn=%05b fill=%x",
				n.cycle, id, fr.routeMask, fr.vaWait, fr.saAttn, fr.fill, r.routeMask, r.vaWait, r.saAttn, r.fill)
		}
	}
	for i := 0; i < 40; i++ {
		if err := fresh.Step(); err != nil {
			t.Fatal(err)
		}
		assertRequestMasks(t, fresh, "on the restored network")
	}
}

// restoredCopy round-trips n through the snapshot codec into a fresh
// network built from cfg.
func restoredCopy(t *testing.T, n *Network, cfg config.Config, kind ControllerKind) *Network {
	t.Helper()
	data := encoded(t, n)
	fresh, err := New(cfg, StaticController{Fixed: Mode0}, kind, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Snap(snap.NewDecoder(bytes.NewReader(data))); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestPurgeReleasesOnNextWireVisit is the one VC release no wire event
// announces. A VC is routed, holds an output VC and is empty (head
// forwarded, body still upstream), every credit is home and the
// retransmission buffer has drained; then a hard fault condemns its packet
// and the sweep purges it. The release condition is true at once and no
// credit or ACK will come to complete it, so purgeVC frees the downstream
// VC itself, before the next wire visit — on the dense referee and on the
// summary path alike, where the router had long left the wire set and is
// not woken — and a network restored from a snapshot taken before that
// visit holds the VC free too. One Step later it is still free.
func TestPurgeReleasesOnNextWireVisit(t *testing.T) {
	for _, tc := range []struct {
		name           string
		dense, restore bool
	}{
		{name: "dense referee", dense: true},
		{name: "port summaries"},
		{name: "port summaries, restored before the wire visit", restore: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(0)
			cfg.Checks = "all"
			n := newNet(t, cfg, Mode1, true)
			n.SetDenseScan(tc.dense)
			for n.Cycle() < 4 { // let the mask path prune its sets
				if err := n.Step(); err != nil {
					t.Fatal(err)
				}
			}
			const router, outVC = 5, 0
			r := n.routers[router]
			if !tc.dense && n.wireActive.has(router) {
				t.Fatal("idle router still in the wire set; the test would not show the release needs no visit")
			}
			op := r.outputs[topology.East]
			vc := r.vc(topology.West, 0)
			vc.routed, vc.outPort, vc.outVC = true, uint8(topology.East), outVC
			vc.pkt = n.buildPacket(flit.Data, 4, 7, cfg.FlitsPerPacket, n.Cycle(), 0)
			r.routeMask[topology.East] |= vc.bit()
			op.vcBusy |= 1 << outVC

			n.purgeVC(r, vc, stats.DropKilledLink)
			if op.vcBusy|op.vcPendingFree != 0 {
				t.Fatalf("purge left busy=%04b pending=%04b; want the drained VC released at once",
					op.vcBusy, op.vcPendingFree)
			}
			if !tc.dense && n.wireActive.has(router) {
				t.Fatal("the purge woke the router's wire phase; the release needs no visit")
			}
			if tc.restore {
				n = restoredCopy(t, n, cfg, ControllerNone)
				op = n.routers[router].outputs[topology.East]
			}
			if err := n.Step(); err != nil {
				t.Fatal(err)
			}
			if op.vcBusy|op.vcPendingFree != 0 {
				t.Fatalf("one Step after the purge: busy=%04b pending=%04b; the released VC must stay free",
					op.vcBusy, op.vcPendingFree)
			}
		})
	}
}
