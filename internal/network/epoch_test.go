package network

import (
	"testing"

	"rlnoc/internal/config"
)

// recordingController answers Mode 1 everywhere and keeps the last
// observation each router was handed.
type recordingController struct{ obs map[int]Observation }

func (c *recordingController) Decide(id int, obs Observation) Mode {
	c.obs[id] = obs
	return Mode1
}

// epochCycles is the control epoch stageEpoch configures.
const epochCycles = 100

// linkCycles normalises a router's link utilisation: epoch x link ports.
const linkCycles = epochCycles * 4

// stageEpoch builds an idle 4x4 mesh with a recording controller, stages
// one control epoch's window on a few routers, and kills link l6.east and
// router 10 mid-epoch:
//   - router 1: two packets finished through it, 10 and 20 cycles per hop;
//   - router 2: accepted four flits and NACKed one;
//   - router 5: sent four flits east; one came back ECC-NACKed, the
//     downstream snooper caught another, and two were hit by errors;
//   - router 6: sent eight flits east before that link dies;
//   - router 10: a packet finished through it before it dies.
//
// The returned step function runs the fabric up to a cycle.
func stageEpoch(t *testing.T) (config.Config, *Network, *recordingController, func(int64)) {
	t.Helper()
	cfg := testConfig(0)
	cfg.RL.StepCycles = epochCycles
	cfg.HardFaults = "50:l6.east,50:r10"
	rec := &recordingController{obs: map[int]Observation{}}
	n, err := New(cfg, rec, ControllerRL, true)
	if err != nil {
		t.Fatal(err)
	}
	n.settle()
	clear(rec.obs) // the cycle-0 consult's idle observations
	r := n.routers
	r[1].winLatSum, r[1].winLatCount = 30, 2
	r[2].winFlitsIn, r[2].winNACKsOut = 4, 1
	r[5].winFlitsOut, r[5].winNACKsIn, r[5].winResidual = 4, 1, 1
	r[5].winErrEvents = 2
	r[6].winFlitsOut = 8
	r[10].winLatSum, r[10].winLatCount = 500, 1

	stepTo := func(cycle int64) {
		t.Helper()
		for n.Cycle() < cycle {
			if err := n.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cfg, n, rec, stepTo
}

type obsCase struct {
	what      string
	got, want float64
}

func checkObs(t *testing.T, cases []obsCase) {
	t.Helper()
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %g, want %g", c.what, c.got, c.want)
		}
	}
}

// TestRouterWindows checks the per-router epoch window the network hands
// each controller: latency with its neutral fallback, link utilisation and
// NACK rates, a killed link's earlier sends, zero rates on an idle router,
// and that every window, a dead router's included, starts the next epoch
// empty.
func TestRouterWindows(t *testing.T) {
	cfg, n, rec, stepTo := stageEpoch(t)
	stepTo(epochCycles)
	if len(rec.obs) != cfg.Routers()-1 {
		t.Fatalf("%d routers observed, want every live one (%d)", len(rec.obs), cfg.Routers()-1)
	}
	if _, ok := rec.obs[10]; ok {
		t.Error("the dead router was observed")
	}
	checkObs(t, []obsCase{
		{"router 1 latency", rec.obs[1].WindowLatency, 15},
		{"idle router latency", rec.obs[15].WindowLatency, neutralLatency},
		{"router 2 input util", rec.obs[2].Features.InputLinkUtil, 4.0 / linkCycles},
		{"router 2 NACKs out per flit in", rec.obs[2].Features.OutputNACKRate, 0.25},
		{"router 5 output util", rec.obs[5].Features.OutputLinkUtil, 4.0 / linkCycles},
		{"router 6 output util, killed link's sends included", rec.obs[6].Features.OutputLinkUtil, 8.0 / linkCycles},
	})
	// A router with no traffic reads rate 0, never 0/0.
	idle := rec.obs[15]
	for _, v := range []float64{idle.Features.InputLinkUtil, idle.Features.OutputLinkUtil,
		idle.Features.InputNACKRate, idle.Features.OutputNACKRate, idle.MeasuredErrorRate} {
		if v != 0 {
			t.Errorf("idle router 15 reads %g, want 0: %+v", v, idle)
			break
		}
	}

	// Every window, the dead router's included, starts the next epoch
	// empty: the first pass reads the dead router's latency too.
	for id, rt := range n.routers {
		sent, nacks, residual := rt.epochSends()
		if sent|nacks|residual|rt.winErrEvents|rt.winFlitsIn|rt.winNACKsOut|rt.winLatCount != 0 || rt.winLatSum != 0 {
			t.Errorf("router %d's window survived the epoch: sends %d/%d/%d, router %d/%d/%d/%d/%g",
				id, sent, nacks, residual, rt.winErrEvents, rt.winFlitsIn, rt.winNACKsOut, rt.winLatCount, rt.winLatSum)
		}
	}
	stepTo(2 * epochCycles)
	if got := rec.obs[1].WindowLatency; got != neutralLatency {
		t.Errorf("router 1's second-epoch latency = %g, want the neutral %d", got, neutralLatency)
	}
}

// TestResidualCorruptionWindow checks the residual-corruption side of the
// epoch window: the snooped advisory NACKs count as NACKs in, the residual
// rate is per flit sent, and an idle router reads 0, not NaN.
func TestResidualCorruptionWindow(t *testing.T) {
	_, n, rec, stepTo := stageEpoch(t)
	stepTo(epochCycles)
	checkObs(t, []obsCase{
		// One ECC NACK and one snooped advisory NACK over four flits out.
		{"router 5 NACKs in per flit out, advisory ones included", rec.obs[5].Features.InputNACKRate, 0.5},
		{"router 5 residual rate", rec.obs[5].ResidualErrorRate, 0.25},
		{"router 5 error rate", rec.obs[5].MeasuredErrorRate, 0.5},
		{"uninvolved router 4 residual rate", rec.obs[4].ResidualErrorRate, 0},
	})
	idle := rec.obs[15]
	if idle.ResidualErrorRate != 0 {
		t.Errorf("idle router 15 residual rate = %g, want 0", idle.ResidualErrorRate)
	}
	if _, _, residual := n.routers[5].epochSends(); residual != 0 {
		t.Errorf("router 5's residual count survived the epoch: %d", residual)
	}
}
