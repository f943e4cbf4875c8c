// Package fault implements the timing-error injection model, a VARIUS-like
// (Sarangi et al., IEEE TSM 2008) Gaussian critical-path slack model: each
// link stage has a population of critical paths whose delay grows with
// temperature, supply noise (proxied by link utilization), voltage droop
// and per-link process variation. A timing error occurs when a path's
// delay exceeds the clock period; the probability is the Gaussian tail of
// the slack distribution, so the error rate rises super-linearly with
// temperature — the coupling the paper's RL controller exploits.
//
// The model is calibrated so that the configured BaseErrorRate holds
// exactly at the reference temperature tRefC, the configured voltage and
// zero utilization.
package fault

import (
	"fmt"
	"math"
	"math/rand"

	"rlnoc/internal/config"
	"rlnoc/internal/detrand"
	"rlnoc/internal/snap"
)

// maxErrorProbability caps the per-flit error probability; beyond this the
// link is effectively unusable and the cap keeps retransmission storms
// finite.
const maxErrorProbability = 0.75

// The model's fixed calibration, typed so that constant arithmetic over
// them rounds as run-time arithmetic does.
const (
	tRefC             float64 = 50.0  // reference temperature (C)
	doubleBitFraction float64 = 0.25  // base chance an error flips a second bit (SampleErrorBits)
	relaxedScale      float64 = 0.001 // Mode 3 (timing relaxation) error scale; near zero per the paper
)

// Model computes per-link, per-flit timing-error probabilities.
// It is calibrated once at construction and is safe for concurrent reads.
type Model struct {
	mu0        float64   // critical-path mean delay at calibration, in clock periods
	sigma      float64   // path delay std dev, in clock periods
	kT         float64   // fractional delay per degree C
	kU         float64   // fractional delay at utilization 1.0
	linkFactor []float64 // per-link process-variation delay factor
}

// New builds a model for numLinks links at the operating point
// cfg.Calibrate solves (the arithmetic config.Validate gates on). The
// per-link process variation factors are drawn deterministically from
// seed.
func New(cfg config.FaultConfig, voltageV float64, numLinks int, seed int64) (*Model, error) {
	if numLinks < 0 {
		return nil, fmt.Errorf("fault: negative link count %d", numLinks)
	}
	cal, err := cfg.Calibrate(voltageV)
	if err != nil {
		return nil, err
	}
	m := &Model{
		mu0:        cal.Mu0,
		sigma:      (1 - cal.Mu0) / cal.Z0, // the reference slack sits at quantile Z0
		kT:         cfg.TempSensitivity,
		kU:         cfg.UtilSensitivity,
		linkFactor: make([]float64, numLinks),
	}
	rng := rand.New(snap.NewCountingSource(seed))
	for i := range m.linkFactor {
		m.linkFactor[i] = 1 + rng.NormFloat64()*cfg.ProcessSigma
		if m.linkFactor[i] < 0.5 {
			m.linkFactor[i] = 0.5
		}
	}
	return m, nil
}

// ErrorProbability returns the per-flit probability of a timing error on a
// link traversal given the link's tile temperature (Celsius) and recent
// utilization (flits/cycle in [0,1]). relaxed applies the Mode 3 timing
// relaxation, which scales the probability by relaxedScale.
func (m *Model) ErrorProbability(link int, tempC, utilization float64, relaxed bool) float64 {
	return m.finish(m.rawProbability(link, tempC, utilization), relaxed)
}

// rawProbability is the expensive analytic kernel (Pow + Erf): the link
// error probability before mode relaxation and clamping. Split out so
// Table can memoize it per link; the raw value depends only on
// (link, tempC, utilization), while relaxation is a cheap per-mode scale.
func (m *Model) rawProbability(link int, tempC, utilization float64) float64 {
	mu := m.mu0 * (1 + m.kT*(tempC-tRefC)) * (1 + m.kU*utilization)
	if link >= 0 && link < len(m.linkFactor) {
		mu *= m.linkFactor[link]
	}
	slack := 1 - mu
	var pPath float64
	if slack <= 0 {
		pPath = 1
	} else {
		pPath = 1 - normalCDF(slack/m.sigma)
	}
	return 1 - math.Pow(1-pPath, config.CriticalPaths)
}

// finish applies the Mode 3 relaxation scale and the probability clamps to
// a raw kernel value, in the exact operation order of the original
// single-function implementation (relax, then upper clamp, then lower).
func (m *Model) finish(p float64, relaxed bool) float64 {
	if relaxed {
		p *= relaxedScale
	}
	if p > maxErrorProbability {
		p = maxErrorProbability
	}
	if p < 0 {
		p = 0
	}
	return p
}

// maxFlipBits caps the bits flipped by one error event.
const maxFlipBits = 6

// SampleErrorBits draws the number of bit flips for one flit traversal
// with error probability p. The flip count escalates with severity: a
// timing path that barely misses the clock edge flips one late bit, but
// the deeper into the timing wall the link operates (higher p), the more
// simultaneous paths fail. Geometrically, each additional bit flips with
// probability doubleBitFraction + 1.5p (capped) — at low p this
// reproduces the classic single/double-bit mix, at high p it produces the
// multi-bit bursts that defeat SECDED (sometimes silently, via
// miscorrection), which is exactly the regime the paper's Mode 3 exists
// for ("the retransmitted flits will still contain faults").
//
// rng is any detrand.Source — a *rand.Rand or a keyed detrand.Stream.
// The draw sequence (one gate draw, then one escalation draw per extra
// bit) is identical either way, so the sampled distribution does not
// depend on the source kind.
func (m *Model) SampleErrorBits(rng detrand.Source, p float64) int {
	if rng.Float64() >= p {
		return 0
	}
	escalate := doubleBitFraction + 1.5*p
	if escalate > 0.7 {
		escalate = 0.7
	}
	bits := 1
	for bits < maxFlipBits && rng.Float64() < escalate {
		bits++
	}
	return bits
}

// FlipBits flips n distinct uniformly random bits across the payload
// words. Duplicate draws are rejected and redrawn, so the draw sequence
// matches the original map-based implementation exactly; the fixed
// scratch array (n is capped at maxFlipBits) keeps the hot fault path
// allocation-free.
func FlipBits(rng detrand.Source, words []uint64, n int) {
	total := 64 * len(words)
	if total == 0 || n <= 0 {
		return
	}
	if n > total {
		n = total
	}
	var buf [maxFlipBits]int
	flipped := buf[:0]
	if n > maxFlipBits {
		flipped = make([]int, 0, n)
	}
	for len(flipped) < n {
		bit := rng.Intn(total)
		dup := false
		for _, b := range flipped {
			if b == bit {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		flipped = append(flipped, bit)
		words[bit/64] ^= 1 << uint(bit%64)
	}
}

// normalCDF is the standard normal cumulative distribution function.
func normalCDF(z float64) float64 {
	return 0.5 * (1 + math.Erf(z/math.Sqrt2))
}
