package network

import (
	"testing"

	"rlnoc/internal/flit"
	"rlnoc/internal/topology"
)

// BenchmarkCommitPhase isolates the wire-commit half of the parallel
// cycle loop: each iteration stages one accepted arrival per router of
// a 16x16 fabric onto the shard op lists (round-robin, as the wire
// phase would) and replays them through commitWires. The "serial"
// variant stays under commitWiresParallelMin so the ordered
// main-goroutine replay runs; "concurrent" commits the full batch
// through the partitioned per-shard pass. Steady state allocates
// nothing — the op lists, flits and buffer slots all recycle.
//
// To profile the commit path:
//
//	go test -run - -bench BenchmarkCommitPhase -cpuprofile cpu.out ./internal/network/
//	go tool pprof cpu.out
func BenchmarkCommitPhase(b *testing.B) {
	for _, tc := range []struct {
		name   string
		nodes  int // routers staged per iteration
		shards int
	}{
		{"serial", commitWiresParallelMin - 1, 4},
		{"concurrent", 256, 4},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := testConfig(0.001)
			cfg.Width, cfg.Height = 16, 16
			cfg.Checks = "off"
			cfg.StepWorkers = tc.shards
			n, err := New(cfg, StaticController{Fixed: Mode1}, ControllerNone, true)
			if err != nil {
				b.Fatal(err)
			}
			defer n.Close()
			// One idle step spins up the worker hub and shard state.
			if err := n.Step(); err != nil {
				b.Fatal(err)
			}
			flits := make([]*flit.Flit, tc.nodes)
			for i := range flits {
				f := n.routers[0].pool.Get()
				f.Kind = flit.Data
				f.VC = 0
				flits[i] = f
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for id := 0; id < tc.nodes; id++ {
					sh := &n.shards[id%len(n.shards)]
					sh.ops = append(sh.ops, wireOp{f: flits[id], down: int32(id),
						inPort: topology.West, flags: opAccept})
				}
				n.commitWires()
				for id := 0; id < tc.nodes; id++ {
					// Drain the pushed flit so the next iteration starts
					// from an empty buffer (same flit struct, no pool churn).
					n.routers[id].vc(topology.West, 0).pop()
				}
			}
		})
	}
}
