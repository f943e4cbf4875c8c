package topology

import (
	"fmt"
	"sync"

	"rlnoc/internal/config"
)

// fabricKey identifies a memoizable fabric: route tables and edge lists
// depend only on wrap and dimensions.
type fabricKey struct {
	wrap          bool
	width, height int
}

// fabricCache memoizes built fabrics across FromConfig calls. Suite
// sweeps and chaos campaigns build the same (topology, size)
// dozens of times per process, and evaluating the O(n^2) route table
// dominates per-run setup on large fabrics. Each hit returns a fresh
// shallow copy sharing the immutable links slice and the route table; the
// table is marked shared so Reroute clones it before its first mutation
// (copy-on-reroute), keeping the cached original pristine.
var (
	fabricMu    sync.Mutex
	fabricCache = map[fabricKey]*Fabric{}
)

// FromConfig builds the fabric a Config describes: wraparound from
// cfg.Topology and dimensions from Width x Height, routed X-Y. The healthy
// table is evaluated per (here, dst) pair. Identical configurations within
// a process share memoized route/link tables.
func FromConfig(cfg config.Config) (Topology, error) {
	kind := cfg.TopologyKind()
	if kind != config.TopologyMesh && kind != config.TopologyTorus {
		return nil, fmt.Errorf("topology: unknown kind %q (want mesh|torus)", kind)
	}
	key := fabricKey{wrap: kind == config.TopologyTorus, width: cfg.Width, height: cfg.Height}
	fabricMu.Lock()
	defer fabricMu.Unlock()
	proto, ok := fabricCache[key]
	if !ok {
		var err error
		if proto, err = newFabric(cfg.Width, cfg.Height, key.wrap); err != nil {
			return nil, err
		}
		fabricCache[key] = proto
	}
	c := *proto
	c.sharedRoutes = true
	return &c, nil
}
