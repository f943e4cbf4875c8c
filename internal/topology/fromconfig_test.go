package topology

import (
	"testing"

	"rlnoc/internal/config"
)

func TestFromConfig(t *testing.T) {
	cfg := config.Default()
	topo, err := FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Kind() != "mesh" || topo.Nodes() != cfg.Routers() {
		t.Errorf("default config built %s with %d nodes", topo.Kind(), topo.Nodes())
	}

	cfg.Topology = config.TopologyTorus
	topo, err = FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Kind() != "torus" || !topo.Wraparound() {
		t.Errorf("torus config built %s", topo.Kind())
	}

	// An empty Topology string means mesh, for configs built by hand
	// before the field existed.
	cfg.Topology = ""
	topo, err = FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Kind() != "mesh" {
		t.Errorf("empty topology built %s, want mesh", topo.Kind())
	}

	cfg.Topology = "hypercube"
	if _, err := FromConfig(cfg); err == nil {
		t.Error("unknown topology did not error")
	}
}

// TestFromConfigMemoizesTables: two builds of the same configuration
// share one route-table backing array (the memoization), while a
// different size builds its own.
func TestFromConfigMemoizesTables(t *testing.T) {
	cfg := config.Small()
	a, err := FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("FromConfig returned the same instance, not a copy")
	}
	if &a.routes[0] != &b.routes[0] {
		t.Error("identical configs did not share the cached route table")
	}
	if &a.links[0] != &b.links[0] {
		t.Error("identical configs did not share the cached edge list")
	}

	wide := cfg
	wide.Width++
	c, err := FromConfig(wide)
	if err != nil {
		t.Fatal(err)
	}
	if &c.routes[0] == &a.routes[0] {
		t.Error("a different size shared a route table")
	}
}

// TestFromConfigRerouteDoesNotCorruptCache: a fault campaign rerouting
// one instance must not leak detours into the cached table later runs
// receive (copy-on-reroute).
func TestFromConfigRerouteDoesNotCorruptCache(t *testing.T) {
	for _, kind := range []string{config.TopologyMesh, config.TopologyTorus} {
		cfg := config.Small()
		cfg.Topology = kind
		if kind == config.TopologyTorus {
			cfg.VCsPerPort = 8
		}
		a, err := FromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := make([]Direction, a.Nodes()*a.Nodes())
		for src := 0; src < a.Nodes(); src++ {
			for dst := 0; dst < a.Nodes(); dst++ {
				before[src*a.Nodes()+dst] = a.Route(src, dst)
			}
		}
		// Kill the link 5<->east-neighbor, both directions, as the
		// network's hard-fault path does.
		east, okE := a.Neighbor(5, East)
		if !okE {
			t.Fatalf("%s: node 5 has no east neighbor", kind)
		}
		a.Reroute(func(id int, d Direction) bool {
			if id == 5 && d == East {
				return true
			}
			to, hasTo := a.Neighbor(id, d)
			return hasTo && id == east && to == 5
		})

		fresh, err := FromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		changed := false
		for src := 0; src < a.Nodes(); src++ {
			for dst := 0; dst < a.Nodes(); dst++ {
				if fresh.Route(src, dst) != before[src*a.Nodes()+dst] {
					t.Fatalf("%s: cached table corrupted at (%d,%d) after Reroute", kind, src, dst)
				}
				if a.Route(src, dst) != before[src*a.Nodes()+dst] {
					changed = true
				}
			}
		}
		if !changed {
			t.Fatalf("%s: Reroute around a dead link changed no route", kind)
		}
	}
}

// FromConfig routes in Table II's order: the table resolves X first.
func TestFromConfigRoutingOrder(t *testing.T) {
	topo, err := FromConfig(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	src := topo.ID(Coord{X: 0, Y: 0})
	dst := topo.ID(Coord{X: 3, Y: 3})
	if d := topo.Route(src, dst); d != East {
		t.Errorf("first hop = %v, want east", d)
	}
}
