// Package power implements an ORION-2.0-like event-energy model for the
// NoC routers at a 32 nm / 1.0 V / 2.0 GHz operating point, plus the
// analytic area model used for the paper's overhead analysis. Every
// microarchitectural event (buffer read/write, crossbar traversal,
// arbitration, link traversal, ECC encode/decode, CRC check, controller
// computation) deposits a fixed energy; leakage accrues per cycle and the
// ECC codec share of it is power-gated when a router runs in Mode 0.
package power

import (
	"fmt"
	"math"
)

// Params holds per-event energies (picojoules) and leakage (milliwatts).
type Params struct {
	// Router datapath events, per flit.
	BufferWritePJ float64
	BufferReadPJ  float64
	CrossbarPJ    float64
	ArbitrationPJ float64
	LinkPJ        float64

	// Error-control events, per flit.
	ECCEncodePJ float64
	ECCDecodePJ float64
	CRCCheckPJ  float64

	// Controller overheads, per flit forwarded while the controller is
	// active. The paper reports 0.16 pJ/flit for the RL logic (1.2% of a
	// 13.1 pJ/flit baseline).
	RLComputePJ float64
	DTComputePJ float64

	// Output (retransmission) buffer write, per flit, present in the
	// proposed router and the ARQ+ECC router.
	RetxBufferPJ float64

	// Leakage (quoted at LeakageRefC).
	RouterLeakageMW float64 // whole router, always on
	ECCLeakageMW    float64 // ECC codecs, gated off in Mode 0
	// LeakageTempCoeff is the exponential subthreshold-leakage growth per
	// degree Celsius above LeakageRefC (leakage roughly doubles every
	// ~45 C at 32 nm).
	LeakageTempCoeff float64
	LeakageRefC      float64

	// Tile processing-core power model: idle floor plus an
	// activity-proportional part (activity in [0,1]).
	CoreIdleW   float64
	CoreActiveW float64
}

// Scaled returns a copy of the parameters rescaled to a different
// operating point: dynamic event energies scale with CV^2 (so with
// (V/Vnom)^2), leakage power scales roughly linearly with V. The defaults
// are calibrated at 1.0 V, so Scaled(1.0) is the identity.
func (p Params) Scaled(voltageV float64) Params {
	if voltageV <= 0 {
		return p
	}
	dyn := voltageV * voltageV
	leak := voltageV
	s := p
	s.BufferWritePJ *= dyn
	s.BufferReadPJ *= dyn
	s.CrossbarPJ *= dyn
	s.ArbitrationPJ *= dyn
	s.LinkPJ *= dyn
	s.ECCEncodePJ *= dyn
	s.ECCDecodePJ *= dyn
	s.CRCCheckPJ *= dyn
	s.RLComputePJ *= dyn
	s.DTComputePJ *= dyn
	s.RetxBufferPJ *= dyn
	s.RouterLeakageMW *= leak
	s.ECCLeakageMW *= leak
	s.CoreIdleW *= dyn
	s.CoreActiveW *= dyn
	return s
}

// DefaultParams returns 32 nm-class constants at the 1.0 V / 2.0 GHz
// operating point. The per-flit end-to-end energy on the 8x8 mesh
// averages ~13 pJ, matching the baseline router energy the paper quotes
// (13.1 pJ/flit) against its 0.16 pJ RL overhead.
func DefaultParams() Params {
	return Params{
		BufferWritePJ:    0.62,
		BufferReadPJ:     0.48,
		CrossbarPJ:       0.98,
		ArbitrationPJ:    0.12,
		LinkPJ:           1.76,
		ECCEncodePJ:      0.31,
		ECCDecodePJ:      0.38,
		CRCCheckPJ:       0.22,
		RLComputePJ:      0.16,
		DTComputePJ:      0.19,
		RetxBufferPJ:     0.55,
		RouterLeakageMW:  1.9,
		ECCLeakageMW:     0.21,
		LeakageTempCoeff: 0.015,
		LeakageRefC:      55,
		CoreIdleW:        0.35,
		CoreActiveW:      1.6,
	}
}

// Event identifies a dynamic-energy event class for aggregate reporting.
type Event int

// Dynamic event classes.
const (
	EvBufferWrite Event = iota
	EvBufferRead
	EvCrossbar
	EvArbitration
	EvLink
	EvECCEncode
	EvECCDecode
	EvCRCCheck
	EvRLCompute
	EvDTCompute
	EvRetxBuffer
	numEvents
)

var eventNames = [numEvents]string{
	"buffer-write", "buffer-read", "crossbar", "arbitration", "link",
	"ecc-encode", "ecc-decode", "crc-check", "rl-compute", "dt-compute",
	"output-buffer",
}

func (e Event) String() string {
	if e < 0 || e >= numEvents {
		return fmt.Sprintf("event(%d)", int(e))
	}
	return eventNames[e]
}

// Meter accumulates dynamic and static energy per router plus a resettable
// window used for thermal coupling and RL rewards.
//
// Dynamic energy is stored as exact per-(router, event) int64 counts and
// materialized as count x unit-energy only on read. Integer counter
// increments commute, so the energy read back is independent of the
// order in which routers recorded their events — unlike the old
// floating-point accumulators, whose low bits depended on global event
// order. The only per-event float state is the per-router link-length
// scale sum, which is written exclusively by the router's owning worker
// in its own deterministic port order.
//
// Concurrency: event-recording methods (BufferWrite .. RetxBuffer,
// LinkScaled) may be called concurrently for *distinct* routers; all
// other methods (reads, static charging, WindowReset) are single-
// threaded, which matches the simulator's sequential commit/epoch
// phases.
type Meter struct {
	p    Params
	n    int
	unit [numEvents]float64 // pJ per event occurrence (Link at scale 1)

	cnt    []int64 // n x numEvents cumulative event counts, router-major
	winCnt []int64 // n x numEvents counts since the last WindowReset

	// linkScale sums the tile-pitch scale of every link traversal per
	// router (== the EvLink count on a mesh, larger when torus wrap
	// links charge their physical span).
	linkScale    []float64
	winLinkScale []float64

	staticPJ       []float64 // per-router cumulative static energy
	windowStaticPJ []float64
}

// NewMeter builds a meter for n routers.
func NewMeter(p Params, n int) *Meter {
	m := &Meter{
		p:              p,
		n:              n,
		cnt:            make([]int64, n*int(numEvents)),
		winCnt:         make([]int64, n*int(numEvents)),
		linkScale:      make([]float64, n),
		winLinkScale:   make([]float64, n),
		staticPJ:       make([]float64, n),
		windowStaticPJ: make([]float64, n),
	}
	m.unit = [numEvents]float64{
		EvBufferWrite: p.BufferWritePJ,
		EvBufferRead:  p.BufferReadPJ,
		EvCrossbar:    p.CrossbarPJ,
		EvArbitration: p.ArbitrationPJ,
		EvLink:        p.LinkPJ,
		EvECCEncode:   p.ECCEncodePJ,
		EvECCDecode:   p.ECCDecodePJ,
		EvCRCCheck:    p.CRCCheckPJ,
		EvRLCompute:   p.RLComputePJ,
		EvDTCompute:   p.DTComputePJ,
		EvRetxBuffer:  p.RetxBufferPJ,
	}
	return m
}

// Params returns the meter's event-energy parameters.
func (m *Meter) Params() Params { return m.p }

func (m *Meter) record(router int, ev Event) {
	i := router*int(numEvents) + int(ev)
	m.cnt[i]++
	m.winCnt[i]++
}

// routerDynamicPJ materializes one router's dynamic energy from its
// event counts: sum(count x unit) for every class, with the link class
// weighted by the accumulated length scale instead of the raw count.
func (m *Meter) routerDynamicPJ(r int, cnt []int64, scale []float64) float64 {
	row := cnt[r*int(numEvents) : (r+1)*int(numEvents)]
	var pj float64
	for ev, c := range row {
		if Event(ev) == EvLink {
			continue
		}
		pj += float64(c) * m.unit[ev]
	}
	return pj + m.p.LinkPJ*scale[r]
}

// BufferWrite records an input-VC buffer write at router r.
func (m *Meter) BufferWrite(r int) { m.record(r, EvBufferWrite) }

// BufferRead records an input-VC buffer read at router r.
func (m *Meter) BufferRead(r int) { m.record(r, EvBufferRead) }

// Crossbar records a crossbar traversal at router r.
func (m *Meter) Crossbar(r int) { m.record(r, EvCrossbar) }

// Arbitration records a switch/VC arbitration at router r.
func (m *Meter) Arbitration(r int) { m.record(r, EvArbitration) }

// Link records a link traversal leaving router r over a wire one tile
// pitch long.
func (m *Meter) Link(r int) { m.LinkScaled(r, 1) }

// LinkScaled records a link traversal leaving router r over a wire
// `scale` tile pitches long: link energy is dominated by wire
// capacitance, which grows linearly with length, so torus wraparound
// links charge their full physical span. The scale sum is per-router
// float state, written only by the code that owns router r.
func (m *Meter) LinkScaled(r int, scale float64) {
	m.record(r, EvLink)
	m.linkScale[r] += scale
	m.winLinkScale[r] += scale
}

// ECCEncode records a SECDED encode at router r's output.
func (m *Meter) ECCEncode(r int) { m.record(r, EvECCEncode) }

// ECCDecode records a SECDED decode at router r's input.
func (m *Meter) ECCDecode(r int) { m.record(r, EvECCDecode) }

// CRCCheck records a network-interface CRC check at router r.
func (m *Meter) CRCCheck(r int) { m.record(r, EvCRCCheck) }

// RLCompute records the per-flit RL controller overhead at router r.
func (m *Meter) RLCompute(r int) { m.record(r, EvRLCompute) }

// DTCompute records the per-flit decision-tree controller overhead.
func (m *Meter) DTCompute(r int) { m.record(r, EvDTCompute) }

// RetxBuffer records a retransmission-buffer write at router r.
func (m *Meter) RetxBuffer(r int) { m.record(r, EvRetxBuffer) }

// AddStaticCycles charges leakage for `cycles` cycles at router r at the
// leakage reference temperature. eccFraction in [0,1] is the share of the
// router's ECC codecs powered during the span (per-port power gating).
// cyclePeriodNS is the clock period in nanoseconds.
func (m *Meter) AddStaticCycles(r int, cycles int64, eccFraction float64, cyclePeriodNS float64) {
	m.AddStaticCyclesAt(r, cycles, eccFraction, cyclePeriodNS, m.p.LeakageRefC)
}

// AddStaticCyclesAt charges leakage like AddStaticCycles, scaled for the
// tile temperature: subthreshold leakage grows exponentially with
// temperature (LeakageTempCoeff per degree), so hot tiles pay more static
// power — a second reason, besides the error rate, to cool off.
func (m *Meter) AddStaticCyclesAt(r int, cycles int64, eccFraction float64, cyclePeriodNS, tempC float64) {
	if eccFraction < 0 {
		eccFraction = 0
	}
	if eccFraction > 1 {
		eccFraction = 1
	}
	mw := m.p.RouterLeakageMW + m.p.ECCLeakageMW*eccFraction
	if m.p.LeakageTempCoeff > 0 {
		mw *= math.Exp(m.p.LeakageTempCoeff * (tempC - m.p.LeakageRefC))
	}
	// mW * ns = pJ.
	pj := mw * float64(cycles) * cyclePeriodNS
	m.staticPJ[r] += pj
	m.windowStaticPJ[r] += pj
}

// DynamicPJ returns router r's cumulative dynamic energy.
func (m *Meter) DynamicPJ(r int) float64 {
	return m.routerDynamicPJ(r, m.cnt, m.linkScale)
}

// StaticPJ returns router r's cumulative static energy.
func (m *Meter) StaticPJ(r int) float64 { return m.staticPJ[r] }

// TotalDynamicPJ returns network-wide dynamic energy.
func (m *Meter) TotalDynamicPJ() float64 {
	var sum float64
	for r := 0; r < m.n; r++ {
		sum += m.routerDynamicPJ(r, m.cnt, m.linkScale)
	}
	return sum
}

// TotalStaticPJ returns network-wide static energy.
func (m *Meter) TotalStaticPJ() float64 {
	var sum float64
	for _, e := range m.staticPJ {
		sum += e
	}
	return sum
}

// TotalPJ returns network-wide total (dynamic+static) energy.
func (m *Meter) TotalPJ() float64 { return m.TotalDynamicPJ() + m.TotalStaticPJ() }

// EventEnergyPJ returns the network-wide energy attributed to one event
// class.
func (m *Meter) EventEnergyPJ(ev Event) float64 {
	if ev == EvLink {
		var scale float64
		for _, s := range m.linkScale {
			scale += s
		}
		return m.p.LinkPJ * scale
	}
	return float64(m.EventCount(ev)) * m.unit[ev]
}

// EventCount returns how many events of a class occurred network-wide.
func (m *Meter) EventCount(ev Event) int64 {
	var sum int64
	for r := 0; r < m.n; r++ {
		sum += m.cnt[r*int(numEvents)+int(ev)]
	}
	return sum
}

// WindowDynamicPJ returns router r's dynamic energy since the last
// WindowReset.
func (m *Meter) WindowDynamicPJ(r int) float64 {
	return m.routerDynamicPJ(r, m.winCnt, m.winLinkScale)
}

// WindowTotalPJ returns router r's total energy since the last WindowReset.
func (m *Meter) WindowTotalPJ(r int) float64 {
	return m.WindowDynamicPJ(r) + m.windowStaticPJ[r]
}

// WindowReset zeroes the per-window accumulators.
func (m *Meter) WindowReset() {
	for i := range m.winCnt {
		m.winCnt[i] = 0
	}
	for i := range m.winLinkScale {
		m.winLinkScale[i] = 0
		m.windowStaticPJ[i] = 0
	}
}

// TilePowerW returns the power (watts) to feed the thermal model for
// router r's tile: core idle + activity-proportional core power + the
// router's measured window power. windowCycles is the window length;
// coreActivity in [0,1] proxies the tile core's load.
func (m *Meter) TilePowerW(r int, windowCycles int64, cyclePeriodNS, coreActivity float64) float64 {
	if windowCycles <= 0 {
		return m.p.CoreIdleW
	}
	windowNS := float64(windowCycles) * cyclePeriodNS
	routerW := m.WindowTotalPJ(r) / windowNS / 1000 // pJ/ns = mW
	if coreActivity < 0 {
		coreActivity = 0
	}
	if coreActivity > 1 {
		coreActivity = 1
	}
	return m.p.CoreIdleW + m.p.CoreActiveW*coreActivity + routerW
}
