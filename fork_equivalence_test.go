package rlnoc

// Referee for pre-train-once (DESIGN.md §21). A suite pre-trains each
// scheme once and measures every benchmark on a fork of that state, and a
// fork is a restore: core.Checkpoint holds the snapshot stream in memory
// and Sim() is RestoreSim over it. So the state at the end of pre-training
// — learned tables, a trained tree, thermal history, whatever a reactive
// baseline still has in flight — must come through the codec whole: a
// forked sim, the sim the checkpoint was taken from and a sim that was
// never checkpointed must measure the same Result and end in the same
// bytes, for every scheme name on both fabrics; and the plans RunSuite and
// the ablations run on the campaign engine, which forks that state, must
// fill every cell with what Run gives for it alone.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"rlnoc/internal/campaign"
	"rlnoc/internal/core"
	"rlnoc/internal/network"
	"rlnoc/internal/traffic"
)

// measureAndSnapshot measures events on sim and returns the Result with
// the snapshot stream of the state the sim ends in.
func measureAndSnapshot(t *testing.T, sim *core.Sim, events []traffic.Event) (Result, []byte) {
	t.Helper()
	res, err := sim.Measure(events, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sim.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

func TestForkMatchesUnforkedRun(t *testing.T) {
	type arm struct {
		name     string
		scheme   Scheme
		tune     func(*Config)
		inFlight bool // pre-training must end with packets still in the network
	}
	// Every name the scheme table holds: the five schemes and the four
	// static arms.
	var arms []arm
	for _, scheme := range AllSchemes() {
		arms = append(arms, arm{name: string(scheme), scheme: scheme})
	}
	for m := network.Mode0; m < network.NumModes; m++ {
		arms = append(arms, arm{name: string(core.StaticScheme(m)), scheme: core.StaticScheme(m)})
	}
	arms = append(arms,
		// The mode-subset ablation's arm: the mask travels in the config.
		arm{name: "rl-modes01", scheme: RL, tune: func(cfg *Config) { cfg.RL.ModeMask = 0b0011 }},
		// The reactive baseline at a hostile error corner: end-to-end
		// retransmissions outlast the pre-training drain, so the checkpoint
		// holds flits on wires, replay buffers and half-built packets.
		arm{name: "crc-undrained", scheme: CRC, inFlight: true,
			tune: func(cfg *Config) {
				cfg.Fault.BaseErrorRate = 0.05
				cfg.DrainCycles = 40
			}})

	for _, topo := range []string{"mesh", "torus"} {
		for _, a := range arms {
			topo, a := topo, a
			t.Run(topo+"/"+a.name, func(t *testing.T) {
				t.Parallel()
				cfg := fastConfig()
				cfg.Seed = 2121
				cfg.Topology = topo
				cfg.PretrainCycles = 4000
				cfg.MaxCycles = 4000
				if topo == "torus" {
					cfg.VCsPerPort = 8 // qroute: escape/adaptive x dateline VC classes
				}
				if a.tune != nil {
					a.tune(&cfg)
				}
				pretrained := func() *core.Sim {
					sim, err := core.NewSim(cfg, a.scheme)
					if err != nil {
						t.Fatal(err)
					}
					if err := sim.Pretrain(); err != nil {
						t.Fatal(err)
					}
					return sim
				}

				plain := pretrained()
				if got := plain.Network().DataInFlight(); a.inFlight && got == 0 {
					t.Fatal("pre-training drained: the checkpoint would hold an empty network")
				}
				events, err := traffic.Synthetic(plain.Network().Topology(), traffic.Uniform, 0.01,
					cfg.FlitsPerPacket, int64(cfg.MaxCycles), cfg.Seed+5)
				if err != nil {
					t.Fatal(err)
				}
				wantRes, wantBytes := measureAndSnapshot(t, plain, events)

				origin := pretrained()
				at, err := origin.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				fork, err := at.Sim()
				if err != nil {
					t.Fatal(err)
				}
				for name, sim := range map[string]*core.Sim{"fork": fork, "checkpointed original": origin} {
					res, data := measureAndSnapshot(t, sim, events)
					if !reflect.DeepEqual(res, wantRes) {
						t.Errorf("%s measured a different Result:\n got %s\nwant %s", name, serialize(t, res), serialize(t, wantRes))
					}
					if !bytes.Equal(data, wantBytes) {
						t.Errorf("%s ended in a different state: %d snapshot bytes against %d, or the same number and different",
							name, len(data), len(wantBytes))
					}
				}
			})
		}
	}
}

// TestRunArmsPretrainsOncePerArm is the engagement test and the referee of
// the plans that suites and ablations share. The equivalence above proves
// a fork changes nothing, so an engine that quietly went back to
// pre-training every cell would pass it; what cannot be faked is the
// number of pre-training phases, counted here from the line the engine
// logs at the one place it runs them. A mixed arm list — schemes, seeds,
// the ablation arms, two arms of one scheme that differ only in config —
// over three benchmarks: one phase per arm, and every cell equal to Run on
// that (config, scheme, benchmark) alone.
func TestRunArmsPretrainsOncePerArm(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a pool of arms and each of their cells again")
	}
	cfg := fastConfig()
	cfg.PretrainCycles = 4000
	cfg.MaxCycles = 4000
	benchmarks := []string{"swaptions", "canneal", "dedup"}
	next := cfg
	next.Seed++
	masked := cfg
	masked.RL.ModeMask = 0b0011
	arms := []Arm{
		{Config: cfg, Scheme: CRC},
		{Config: cfg, Scheme: DT},
		{Config: cfg, Scheme: RL},
		{Config: next, Scheme: RL},
		{Label: "modes {0,1}", Config: masked, Scheme: RL},
		{Config: cfg, Scheme: core.StaticScheme(network.Mode2)},
	}

	var log planLog
	results, err := runPlan(context.Background(), campaign.Options{Dir: t.TempDir(), Logf: log.logf}, arms, benchmarks)
	if err != nil {
		t.Fatal(err)
	}
	if got := log.count(phaseLine); got != len(arms) {
		t.Errorf("%d pre-training phases for %d arms x %d benchmarks, want %d",
			got, len(arms), len(benchmarks), len(arms))
	}
	for i, arm := range arms {
		for b, bench := range benchmarks {
			cell := fmt.Sprintf("arm %d (seed %d %s %s)/%s", i, arm.Config.Seed, arm.Scheme, arm.Label, bench)
			want, err := Run(arm.Config, arm.Scheme, bench)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			if got := results[i][b]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: the plan's cell differs from Run:\n got %s\nwant %s", cell, serialize(t, got), serialize(t, want))
			}
		}
	}
}
