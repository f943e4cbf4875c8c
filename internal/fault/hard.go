package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"rlnoc/internal/detrand"
	"rlnoc/internal/topology"
)

// HardKind distinguishes the two permanent-failure event types.
type HardKind uint8

// Hard-fault kinds: a single bidirectional link dies, or a whole router
// (with every incident link) dies.
const (
	KillLink HardKind = iota
	KillRouter
)

// HardFault is one permanent-failure event. At Cycle the named component
// stops working forever: a KillLink event severs the link between Router
// and its Dir neighbor in both directions; a KillRouter event removes the
// router, its NI and all incident links. Unlike the transient timing-error
// model, hard faults are not probabilistic — the schedule is explicit, so
// campaigns replay identically.
type HardFault struct {
	Cycle  int64
	Kind   HardKind
	Router int
	Dir    topology.Direction // meaningful for KillLink only
}

// String renders the event in the schedule syntax accepted by
// ParseHardFaults.
func (h HardFault) String() string {
	if h.Kind == KillRouter {
		return fmt.Sprintf("%d:r%d", h.Cycle, h.Router)
	}
	return fmt.Sprintf("%d:l%d.%s", h.Cycle, h.Router, h.Dir)
}

// FormatSchedule renders a schedule back into the comma-separated syntax.
func FormatSchedule(sched []HardFault) string {
	parts := make([]string, len(sched))
	for i, h := range sched {
		parts[i] = h.String()
	}
	return strings.Join(parts, ",")
}

// ParseHardFaults parses a comma-separated hard-fault schedule:
//
//	"5000:l12.east"  the link router 12 -> east dies at cycle 5000
//	"8000:r3"        router 3 dies at cycle 8000
//
// Events may be given in any order; the returned schedule is sorted by
// cycle (stable, so same-cycle events keep their written order). Router
// IDs are range-checked against the fabric separately by
// ValidateSchedule, since the parser has no topology in hand.
func ParseHardFaults(spec string) ([]HardFault, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var sched []HardFault
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		colon := strings.IndexByte(part, ':')
		if colon < 0 {
			return nil, fmt.Errorf("fault: hard fault %q: want CYCLE:rID or CYCLE:lID.DIR", part)
		}
		cycle, err := strconv.ParseInt(part[:colon], 10, 64)
		if err != nil || cycle < 1 {
			return nil, fmt.Errorf("fault: hard fault %q: bad cycle (want a positive integer)", part)
		}
		target := part[colon+1:]
		if target == "" {
			return nil, fmt.Errorf("fault: hard fault %q: missing target", part)
		}
		switch target[0] {
		case 'r':
			id, err := strconv.Atoi(target[1:])
			if err != nil || id < 0 {
				return nil, fmt.Errorf("fault: hard fault %q: bad router id", part)
			}
			sched = append(sched, HardFault{Cycle: cycle, Kind: KillRouter, Router: id})
		case 'l':
			dot := strings.IndexByte(target, '.')
			if dot < 0 {
				return nil, fmt.Errorf("fault: hard fault %q: want lID.DIR", part)
			}
			id, err := strconv.Atoi(target[1:dot])
			if err != nil || id < 0 {
				return nil, fmt.Errorf("fault: hard fault %q: bad router id", part)
			}
			dir, ok := parseDir(target[dot+1:])
			if !ok {
				return nil, fmt.Errorf("fault: hard fault %q: bad direction %q (want north|south|east|west)", part, target[dot+1:])
			}
			sched = append(sched, HardFault{Cycle: cycle, Kind: KillLink, Router: id, Dir: dir})
		default:
			return nil, fmt.Errorf("fault: hard fault %q: target must start with r (router) or l (link)", part)
		}
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].Cycle < sched[j].Cycle })
	return sched, nil
}

// ValidateSchedule range-checks a schedule against a fabric: router IDs
// must exist and killed links must be wired (a mesh edge router has no
// neighbor in every direction).
func ValidateSchedule(sched []HardFault, topo topology.Topology) error {
	n := topo.Nodes()
	for _, h := range sched {
		if h.Router < 0 || h.Router >= n {
			return fmt.Errorf("fault: hard fault %s: router %d outside fabric [0,%d)", h, h.Router, n)
		}
		if h.Kind == KillLink {
			if h.Dir < topology.North || h.Dir > topology.West {
				return fmt.Errorf("fault: hard fault %s: bad direction", h)
			}
			if _, ok := topo.Neighbor(h.Router, h.Dir); !ok {
				return fmt.Errorf("fault: hard fault %s: router %d has no %s link", h, h.Router, h.Dir)
			}
		}
	}
	return nil
}

// RandomSchedule derives a reproducible randomized kill schedule for
// chaos campaigns, keyed on (seed, run) through detrand's hard-fault
// domain so the schedule is a pure function of the key — independent of
// traversal order, worker count or any other draw site. It picks kills
// wired links (mostly) and whole routers (roughly one in four), spread
// uniformly over [1, maxCycle].
func RandomSchedule(seed int64, run uint64, topo topology.Topology, kills int, maxCycle int64) []HardFault {
	rng := detrand.New(seed, detrand.DomainHardFault, run, 0)
	sched := make([]HardFault, 0, kills)
	for len(sched) < kills {
		h := HardFault{Cycle: 1 + int64(rng.Intn(int(maxCycle)))}
		if rng.Intn(4) == 0 {
			h.Kind = KillRouter
			h.Router = rng.Intn(topo.Nodes())
		} else {
			h.Kind = KillLink
			h.Router = rng.Intn(topo.Nodes())
			h.Dir = topology.North + topology.Direction(rng.Intn(4))
			if _, ok := topo.Neighbor(h.Router, h.Dir); !ok {
				continue // unwired mesh edge; redraw
			}
		}
		sched = append(sched, h)
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].Cycle < sched[j].Cycle })
	return sched
}

func parseDir(s string) (topology.Direction, bool) {
	switch strings.ToLower(s) {
	case "north", "n":
		return topology.North, true
	case "south", "s":
		return topology.South, true
	case "east", "e":
		return topology.East, true
	case "west", "w":
		return topology.West, true
	}
	return 0, false
}
