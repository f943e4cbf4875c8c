// Command trafficgen generates, inspects and validates injection traces:
// the PARSEC-like benchmark models and the classic synthetic patterns.
//
// Examples:
//
//	trafficgen -list
//	trafficgen -benchmark canneal -cycles 200000 -out canneal.trace
//	trafficgen -pattern transpose -rate 0.01 -cycles 50000 -out t.trace
//	trafficgen -inspect canneal.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rlnoc/internal/config"
	"rlnoc/internal/topology"
	"rlnoc/internal/traffic"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trafficgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("trafficgen", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list the PARSEC-like benchmarks and their traffic characters")
		benchmark = fs.String("benchmark", "", "generate the named benchmark's trace")
		pattern   = fs.String("pattern", "", "generate a synthetic pattern trace")
		rate      = fs.Float64("rate", 0.005, "synthetic injection rate, packets/node/cycle")
		cycles    = fs.Int64("cycles", 200_000, "trace duration in cycles")
		seed      = fs.Int64("seed", 1, "random seed")
		out       = fs.String("out", "", "output file (default stdout)")
		inspect   = fs.String("inspect", "", "validate and summarize an existing trace file")
		width     = fs.Int("width", 8, "fabric width")
		height    = fs.Int("height", 8, "fabric height")
		topoFlag  = fs.String("topology", "mesh", "fabric topology: mesh|torus")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var mesh topology.Topology
	var err error
	switch *topoFlag {
	case config.TopologyMesh:
		mesh, err = topology.NewMesh(*width, *height)
	case config.TopologyTorus:
		mesh, err = topology.NewTorus(*width, *height)
	default:
		err = fmt.Errorf("unknown topology %q (want mesh|torus)", *topoFlag)
	}
	if err != nil {
		return err
	}

	switch {
	case *list:
		fmt.Fprintf(stdout, "%-15s %10s %8s %8s %8s %8s\n", "benchmark", "rate/kcyc", "duty", "local", "hotspot", "short")
		for _, b := range traffic.Benchmarks() {
			duty := b.BurstOnProb / (b.BurstOnProb + b.BurstOffProb)
			fmt.Fprintf(stdout, "%-15s %10.1f %8.2f %8.2f %8.2f %8.2f\n",
				b.Name, b.RatePktPerKCycle, duty, b.Locality, b.HotspotProb, b.ShortFrac)
		}
		fmt.Fprintln(stdout, "\nsynthetic patterns:")
		for _, p := range traffic.Patterns() {
			fmt.Fprintln(stdout, " ", p)
		}
		return nil

	case *inspect != "":
		f, err := os.Open(*inspect)
		if err != nil {
			return err
		}
		defer f.Close()
		events, err := traffic.ReadTrace(f)
		if err != nil {
			return err
		}
		if err := traffic.Validate(mesh, events); err != nil {
			return fmt.Errorf("invalid trace: %w", err)
		}
		var flits int64
		var last int64
		for _, e := range events {
			flits += int64(e.Flits)
			last = e.Cycle
		}
		fmt.Fprintf(stdout, "events         %d\n", len(events))
		fmt.Fprintf(stdout, "flits          %d\n", flits)
		fmt.Fprintf(stdout, "span           %d cycles\n", last+1)
		fmt.Fprintf(stdout, "offered load   %.5f flits/node/cycle\n", traffic.OfferedLoad(mesh, events, last+1))
		return nil

	case *benchmark != "":
		b, err := traffic.BenchmarkByName(*benchmark)
		if err != nil {
			return err
		}
		events, err := b.Trace(mesh, *cycles, config.Default().FlitsPerPacket, *seed)
		if err != nil {
			return err
		}
		return writeOut(stdout, *out, events)

	case *pattern != "":
		events, err := traffic.Synthetic(mesh, traffic.Pattern(*pattern), *rate,
			config.Default().FlitsPerPacket, *cycles, *seed)
		if err != nil {
			return err
		}
		return writeOut(stdout, *out, events)

	default:
		fs.Usage()
		return nil
	}
}

// writeOut writes the trace to path, or to stdout when path is empty.
func writeOut(stdout io.Writer, path string, events []traffic.Event) error {
	if path == "" {
		return traffic.WriteTrace(stdout, events)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := traffic.WriteTrace(f, events); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d events to %s\n", len(events), path)
	return nil
}
