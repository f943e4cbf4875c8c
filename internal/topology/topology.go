// Package topology models the interconnect fabric: node coordinates,
// port directions, neighbor relations, an explicit link (edge) list, and
// table-driven dimension-ordered routing. One type, Fabric, is both the
// paper's 2D mesh (8x8 with X-Y routing in the evaluation) and the 2D
// torus, a mesh whose rows and columns close into rings and whose
// wraparound links use a dateline VC-class rule for deadlock freedom.
package topology

import "fmt"

// Direction identifies one of a router's five ports.
type Direction int

// The five router ports. Local connects the router to its processing core
// via the network interface.
const (
	Local Direction = iota
	North           // +Y
	South           // -Y
	East            // +X
	West            // -X
	NumPorts
)

var dirNames = [NumPorts]string{"local", "north", "south", "east", "west"}

// String returns a lowercase port name.
func (d Direction) String() string {
	if d < 0 || d >= NumPorts {
		return fmt.Sprintf("direction(%d)", int(d))
	}
	return dirNames[d]
}

// Opposite returns the port on the neighboring router that faces d.
// Opposite(Local) is Local.
func (d Direction) Opposite() Direction {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	default:
		return Local
	}
}

// Coord is a fabric coordinate; X grows East, Y grows North.
type Coord struct {
	X, Y int
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Link is one directed router-to-router channel of the fabric.
type Link struct {
	Src int       // upstream router ID
	Dst int       // downstream router ID
	Dir Direction // output port on Src (never Local)
	// Length is the physical wire length in tile pitches. Mesh links are
	// 1; torus wraparound links span the row or column they close.
	Length float64
}

// linkPorts is the number of inter-router ports per router (all ports
// except Local). The dense link-index space reserves one slot per
// (router, port) pair whether or not the port is wired, so fault-model
// RNG streams are position-independent.
const linkPorts = int(NumPorts) - 1

// LinkIndex maps a (router, output port) pair to its canonical slot in
// the dense per-link index space. It is the single source of truth for
// link identity: the fault model and the error-probability cache key on
// it.
func LinkIndex(id int, d Direction) int { return id*linkPorts + int(d-North) }

// LinkSlots returns the size of the dense link-index space for a fabric
// of the given node count.
func LinkSlots(nodes int) int { return nodes * linkPorts }

// Order names the dimension order of deterministic routing. X-Y, the
// paper's, is the only one.
type Order int

// OrderXY resolves the X dimension first, then Y.
const OrderXY Order = 0

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
