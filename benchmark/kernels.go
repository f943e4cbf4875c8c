package main

// Kernel loops: each layer's exported entry points, timed from outside on
// inputs shaped like the representative simulation's (its fabric, its
// fault and thermal configuration, its flit width).

import (
	"fmt"
	"path/filepath"
	"time"

	"rlnoc/internal/campaign"
	"rlnoc/internal/coding"
	"rlnoc/internal/config"
	"rlnoc/internal/detrand"
	"rlnoc/internal/dt"
	"rlnoc/internal/fault"
	"rlnoc/internal/network"
	"rlnoc/internal/rl"
	"rlnoc/internal/thermal"
	"rlnoc/internal/topology"
)

// sink keeps kernel results alive so the compiler cannot drop the calls.
var sink uint64

// nsPerOp times n calls of fn in one loop.
func nsPerOp(n int, fn func(i int)) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t)) / float64(n)
}

// medianOf times fn reps times and returns the median duration.
func medianOf(reps int, fn func() error) (time.Duration, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t)))
	}
	return time.Duration(quantile(xs, 0.5)), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func buildCold(cfg config.Config) (topology.Topology, error) {
	if cfg.TopologyKind() == config.TopologyTorus {
		return topology.NewTorusOrder(cfg.Width, cfg.Height, topology.OrderXY)
	}
	return topology.NewMeshOrder(cfg.Width, cfg.Height, topology.OrderXY)
}

func runKernels(spec simSpec, e *env, dir string, m map[string]float64) error {
	end := e.tr.begin("kernels")
	defer end()
	cfg, ops, reps := spec.cfg, e.sz.kernelOps, e.sz.kernelReps

	// Construction.
	d, err := medianOf(reps, func() error {
		net, err := network.New(cfg, network.StaticController{Fixed: network.Mode1}, network.ControllerNone, true)
		if err == nil {
			net.Close()
		}
		return err
	})
	if err != nil {
		return err
	}
	m["network.new_ms"] = ms(d)
	d, _ = medianOf(reps, func() error {
		sink += uint64(len(rl.NewSharedAgents(cfg.RL, cfg.Routers(), cfg.Seed)))
		return nil
	})
	m["rl.new_agents_ms"] = ms(d)
	var topo topology.Topology
	if d, err = medianOf(reps, func() (err error) { topo, err = buildCold(cfg); return }); err != nil {
		return err
	}
	m["topology.build_cold_us"] = us(d)
	if d, err = medianOf(reps, func() error { _, err := topology.FromConfig(cfg); return err }); err != nil {
		return err
	}
	m["topology.build_memo_us"] = us(d)

	// RL: a learning Step closes the previous epoch with a TD update and
	// picks the next action; a frozen Step only picks.
	disc := rl.DefaultDiscretizer()
	in := detrand.New(cfg.Seed, detrand.DomainNode, 0, 0)
	states := make([]rl.State, 256)
	for i := range states {
		states[i] = disc.Discretize(rl.Features{
			BufferUtilization: in.Float64(), InputLinkUtil: in.Float64() * 0.3, OutputLinkUtil: in.Float64() * 0.3,
			InputNACKRate: in.Float64() * 0.1, OutputNACKRate: in.Float64() * 0.1, TemperatureC: 50 + 50*in.Float64(),
		})
	}
	agent := rl.NewAgent(cfg.RL, cfg.Seed)
	m["rl.update_ns"] = nsPerOp(ops, func(i int) { sink += uint64(agent.Step(states[i&255], 1.0)) })
	agent.Freeze()
	m["rl.decide_ns"] = nsPerOp(ops, func(i int) { sink += uint64(agent.Step(states[i&255], 1.0)) })

	// DT: fit the regression tree on samples of the controller's shape
	// (six Table-I features, an error-rate label).
	samples := make([]dt.Sample, e.sz.dtSamples)
	for i := range samples {
		x := make([]float64, 6)
		for j := range x {
			x[j] = in.Float64()
		}
		samples[i] = dt.Sample{X: x, Y: 0.2 * x[5] * x[2]}
	}
	if d, err = medianOf(reps, func() error { _, err := dt.Train(samples, dt.DefaultOptions()); return err }); err != nil {
		return err
	}
	m["dt.train_ms"] = ms(d)

	// Fault kernel: a hit repeats a link's (temperature, utilisation) key,
	// a miss changes it.
	model, err := fault.New(cfg.Fault, cfg.VoltageV, topo.LinkSlots(), cfg.Seed*31+1)
	if err != nil {
		return err
	}
	tab := fault.NewTable(model, topo.LinkSlots())
	links := topo.LinkSlots()
	var p float64
	m["fault.table_hit_ns"] = nsPerOp(ops, func(i int) { p += tab.ErrorProbability(i%links, 70, 0.1, false) })
	m["fault.table_miss_ns"] = nsPerOp(ops/10, func(i int) { p += tab.ErrorProbability(i%links, 50+float64(i%4096)*0.01, 0.1, false) })
	if hits, misses := tab.Stats(); hits == 0 || misses < int64(ops/10) {
		return fmt.Errorf("fault table kernel: %d hits, %d misses", hits, misses)
	}
	sink += uint64(p * 1e9)

	// Coding: per 64-bit word for SECDED, per flit for the CRC.
	words := make([]uint64, 256)
	checks := make([]uint8, len(words))
	for i := range words {
		words[i] = in.Uint64()
		checks[i] = coding.EncodeSECDED(words[i])
	}
	flitWords := cfg.FlitBits / 64
	m["coding.secded_encode_ns"] = nsPerOp(ops, func(i int) { sink += uint64(coding.EncodeSECDED(words[i&255])) })
	m["coding.secded_decode_ns"] = nsPerOp(ops, func(i int) {
		w, _ := coding.DecodeSECDED(words[i&255], checks[i&255])
		sink += w
	})
	m["coding.crc16_flit_ns"] = nsPerOp(ops, func(i int) {
		j := i % (len(words) - flitWords)
		sink += uint64(coding.CRC16Words(words[j : j+flitWords]))
	})

	// detrand: key a (link, cycle) stream and draw once, as every fault
	// injection site does.
	var f float64
	m["detrand.float64_ns"] = nsPerOp(ops, func(i int) {
		s := detrand.New(cfg.Seed, detrand.DomainLink, uint64(i&1023), uint64(i))
		f += s.Float64()
	})
	sink += uint64(f)

	// Thermal: one solve of the grid per update period.
	grid, err := thermal.NewGrid(topo, cfg.Thermal)
	if err != nil {
		return err
	}
	powers := make([]float64, topo.Nodes())
	for i := range powers {
		powers[i] = 0.05 + 0.1*in.Float64()
	}
	dtSec := float64(cfg.Thermal.UpdatePeriod) * cfg.CyclePeriodNS() * 1e-9
	var stepErr error
	solve := nsPerOp(ops/100+1, func(int) {
		if err := grid.Step(powers, dtSec); err != nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		return stepErr
	}
	m["thermal.solve_us"] = solve / 1e3

	// Campaign journal: one durable (fsynced) append.
	journal, _, err := campaign.OpenJournal(filepath.Join(dir, "journal.log"))
	if err != nil {
		return err
	}
	var appendErr error
	app := nsPerOp(e.sz.journalAppends, func(i int) {
		if err := journal.Append(campaign.Record{Type: campaign.RecStart, Job: "kernel", Attempt: i}); err != nil {
			appendErr = err
		}
	})
	if err := journal.Close(); err != nil {
		return err
	}
	if appendErr != nil {
		return appendErr
	}
	m["campaign.journal_append_us"] = app / 1e3
	return nil
}
