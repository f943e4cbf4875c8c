// Package analytic provides closed-form performance and energy models of
// the simulated router: exact zero-load latency (cross-validated against
// the cycle-accurate simulator in tests), expected retransmission
// overheads under the timing-error model, and the per-mode cost model
// whose crossover points justify the decision-tree baseline's thresholds
// and the sweet spots of the four operation modes.
package analytic

import (
	"math"

	"rlnoc/internal/power"
)

// Link-level timing of the simulated 4-stage router (see
// internal/network): a flit entering an input buffer waits pipelineFill=2
// cycles (RC/VA), wins SA, and traverses the link in 1 cycle plus the
// mode's extra latency. Injection and ejection add the constant 4.
const (
	perHopBase   = 3
	constantTerm = 4
)

// LinkParams captures how an operation mode shapes a channel.
type LinkParams struct {
	// ExtraLatency is the added cycles per link traversal (1 for the ECC
	// stage, +2 for Mode 3 relaxation).
	ExtraLatency int64
	// Occupancy is the cycles one flit occupies the channel (2 for the
	// Mode 2 duplicate, 3 for Mode 3).
	Occupancy int64
}

// ModeLink returns the link parameters of operation mode m (0..3).
func ModeLink(m int) LinkParams {
	switch m {
	case 1:
		return LinkParams{ExtraLatency: 1, Occupancy: 1}
	case 2:
		return LinkParams{ExtraLatency: 1, Occupancy: 2}
	case 3:
		return LinkParams{ExtraLatency: 3, Occupancy: 3}
	default:
		return LinkParams{ExtraLatency: 0, Occupancy: 1}
	}
}

// ZeroLoadLatency is the exact end-to-end latency (cycles) of a single
// packet of `flits` flits crossing `hops` links on an otherwise idle
// mesh with every link in the same mode:
//
//	L = 4 + (3 + extra) * hops + (flits-1) * occupancy
//
// The simulator reproduces this equation exactly (see analytic_test.go).
func ZeroLoadLatency(hops, flits int, lp LinkParams) int64 {
	if hops < 1 || flits < 1 {
		return 0
	}
	return constantTerm + (perHopBase+lp.ExtraLatency)*int64(hops) + int64(flits-1)*lp.Occupancy
}

// detectedFraction is the share of mild error events SECDED detects but
// cannot correct (two flips landing in one 64-bit word): the injector
// flips 2 bits in ~25% of mild events, and both land in the same word
// roughly half the time.
const detectedFraction = 0.125

// escapeFraction estimates the share of error events that defeat per-hop
// SECDED *silently* (3+ flips in one word miscorrect) and fall through to
// the end-to-end CRC. The injector escalates flips geometrically with
// ratio ~(0.25 + 1.5p), so three-plus-bit events scale with its square.
func escapeFraction(p float64) float64 {
	esc := 0.25 + 1.5*p
	if esc > 0.7 {
		esc = 0.7
	}
	return esc * esc * 0.5 // same-word burst share
}

// nackRoundTrip is the link-level retransmission penalty in cycles (NACK
// wire + rollback + resend).
const nackRoundTrip = 4

// ModeCost is the expected per-flit, per-hop cost of running a link in a
// mode at error probability p.
type ModeCost struct {
	LatencyCycles float64
	EnergyPJ      float64
}

// EvaluateMode returns the expected per-flit per-hop cost of mode m at
// per-flit per-hop error probability p, for packets of `flits` flits
// crossing `hops` links (the end-to-end retransmission penalty of Mode 0
// depends on both). Energy uses the given power parameters.
func EvaluateMode(m int, p float64, flits, hops int, pr power.Params) ModeCost {
	lp := ModeLink(m)
	hop := pr.BufferWritePJ + pr.BufferReadPJ + pr.CrossbarPJ + pr.ArbitrationPJ + pr.LinkPJ
	cost := ModeCost{
		LatencyCycles: float64(perHopBase) + float64(lp.ExtraLatency) + float64(lp.Occupancy-1),
		EnergyPJ:      hop,
	}
	// A corrupt flit that reaches the destination costs a full end-to-end
	// packet retransmission. Per packet that is (#corrupting events) x
	// (path latency / path energy); amortized per flit-hop the flits*hops
	// factor cancels, leaving pEscape x pathLatency and pEscape x
	// pathEnergy.
	pathLatency := float64(ZeroLoadLatency(hops, flits, lp)) + float64(hops*2) // + NACK return trip
	pathEnergy := hop * float64(flits*hops)
	switch m {
	case 0:
		// Everything escapes: no hop-level protection at all.
		cost.LatencyCycles += p * pathLatency
		cost.EnergyPJ += p * pathEnergy
	default:
		// ECC stage energy on every protected hop.
		cost.EnergyPJ += pr.ECCEncodePJ + pr.ECCDecodePJ + pr.RetxBufferPJ
		if m != 3 {
			// Multi-bit bursts miscorrect silently past SECDED and pay
			// the end-to-end retransmission like Mode 0, scaled by the
			// escape share. Mode 3 suppresses the error process itself.
			escape := p * escapeFraction(p)
			cost.LatencyCycles += escape * pathLatency
			cost.EnergyPJ += escape * pathEnergy
		}
		switch m {
		case 1:
			// Detected-uncorrectable events pay the NACK round trip.
			cost.LatencyCycles += p * detectedFraction * nackRoundTrip
			cost.EnergyPJ += p * detectedFraction * pr.LinkPJ
		case 2:
			// The duplicate costs a second link traversal and decode for
			// every flit, and absorbs most detected-uncorrectable events.
			cost.EnergyPJ += pr.LinkPJ + pr.ECCDecodePJ
			cost.LatencyCycles += p * detectedFraction * p * detectedFraction * nackRoundTrip
		}
	}
	return cost
}

// Score folds a mode's cost into a single figure of merit comparable to
// the RL reward's structure: latency times energy (lower is better).
func (c ModeCost) Score() float64 { return c.LatencyCycles * c.EnergyPJ }

// BestMode returns the mode with the lowest score at error probability p.
func BestMode(p float64, flits, hops int, pr power.Params) int {
	best, bestScore := 0, math.Inf(1)
	for m := 0; m < 4; m++ {
		if s := EvaluateMode(m, p, flits, hops, pr).Score(); s < bestScore {
			best, bestScore = m, s
		}
	}
	return best
}

// CrossoverThresholds scans error probabilities and returns the
// boundaries where the best mode changes — the analytic ancestors of the
// decision-tree policy thresholds.
func CrossoverThresholds(flits, hops int, pr power.Params) []float64 {
	var thresholds []float64
	prev := BestMode(1e-7, flits, hops, pr)
	for exp := -7.0; exp <= 0; exp += 0.01 {
		p := math.Pow(10, exp)
		if p > 0.75 {
			break
		}
		m := BestMode(p, flits, hops, pr)
		if m != prev {
			thresholds = append(thresholds, p)
			prev = m
		}
	}
	return thresholds
}
