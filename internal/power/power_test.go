package power

import (
	"math"
	"testing"
)

func TestMeterAccumulatesEvents(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(p, 4)
	m.BufferWrite(0)
	m.BufferWrite(0)
	m.BufferRead(1)
	m.Crossbar(1)
	m.Link(2, 1)
	if got, want := m.DynamicPJ(0), 2*p.BufferWritePJ; math.Abs(got-want) > 1e-12 {
		t.Errorf("router 0 dynamic = %g, want %g", got, want)
	}
	if got, want := m.DynamicPJ(1), p.BufferReadPJ+p.CrossbarPJ; math.Abs(got-want) > 1e-12 {
		t.Errorf("router 1 dynamic = %g, want %g", got, want)
	}
	if got, want := m.TotalDynamicPJ(), 2*p.BufferWritePJ+p.BufferReadPJ+p.CrossbarPJ+p.LinkPJ; math.Abs(got-want) > 1e-12 {
		t.Errorf("total dynamic = %g, want %g", got, want)
	}
	if eventCount(m, EvBufferWrite) != 2 {
		t.Errorf("buffer-write count = %d, want 2", eventCount(m, EvBufferWrite))
	}
	if got := float64(eventCount(m, EvLink)) * m.unit[EvLink]; math.Abs(got-p.LinkPJ) > 1e-12 {
		t.Errorf("link energy = %g, want %g", got, p.LinkPJ)
	}
}

func TestAllEventMethods(t *testing.T) {
	m := NewMeter(DefaultParams(), 1)
	m.BufferWrite(0)
	m.BufferRead(0)
	m.Crossbar(0)
	m.Arbitration(0)
	m.Link(0, 1)
	m.ECCEncode(0)
	m.ECCDecode(0)
	m.CRCCheck(0)
	m.RLCompute(0)
	m.DTCompute(0)
	m.RetxBuffer(0)
	for ev := Event(0); ev < numEvents; ev++ {
		if eventCount(m, ev) != 1 {
			t.Errorf("event %v count = %d, want 1", ev, eventCount(m, ev))
		}
		if float64(eventCount(m, ev))*m.unit[ev] <= 0 {
			t.Errorf("event %v has non-positive energy", ev)
		}
	}
}

func TestStaticEnergyGating(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(p, 2)
	m.AddStaticCyclesAt(0, 1000, 1.0, 0.5, m.Params().LeakageRefC) // all ECC codecs powered
	m.AddStaticCyclesAt(1, 1000, 0.0, 0.5, m.Params().LeakageRefC) // all ECC codecs gated
	on := m.StaticPJ(0)
	off := m.StaticPJ(1)
	wantOn := (p.RouterLeakageMW + p.ECCLeakageMW) * 1000 * 0.5
	wantOff := p.RouterLeakageMW * 1000 * 0.5
	if math.Abs(on-wantOn) > 1e-9 {
		t.Errorf("ECC-on static = %g, want %g", on, wantOn)
	}
	if math.Abs(off-wantOff) > 1e-9 {
		t.Errorf("ECC-off static = %g, want %g", off, wantOff)
	}
	if off >= on {
		t.Error("power gating saved nothing")
	}
	if got := m.TotalStaticPJ(); math.Abs(got-(on+off)) > 1e-9 {
		t.Errorf("TotalStaticPJ = %g, want %g", got, on+off)
	}
	if got := m.TotalPJ(); math.Abs(got-(on+off)) > 1e-9 {
		t.Errorf("TotalPJ = %g, want %g", got, on+off)
	}
	// Partial gating and clamping.
	m2 := NewMeter(p, 1)
	m2.AddStaticCyclesAt(0, 1000, 0.5, 0.5, m2.Params().LeakageRefC)
	wantHalf := (p.RouterLeakageMW + 0.5*p.ECCLeakageMW) * 1000 * 0.5
	if math.Abs(m2.StaticPJ(0)-wantHalf) > 1e-9 {
		t.Errorf("half-gated static = %g, want %g", m2.StaticPJ(0), wantHalf)
	}
	m3 := NewMeter(p, 1)
	m3.AddStaticCyclesAt(0, 1000, 7.0, 0.5, m3.Params().LeakageRefC) // clamped to 1
	if math.Abs(m3.StaticPJ(0)-wantOn) > 1e-9 {
		t.Errorf("clamped static = %g, want %g", m3.StaticPJ(0), wantOn)
	}
}

func TestTemperatureDependentLeakage(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(p, 3)
	m.AddStaticCyclesAt(0, 1000, 0, 0.5, p.LeakageRefC)    // reference
	m.AddStaticCyclesAt(1, 1000, 0, 0.5, p.LeakageRefC+45) // hot: ~2x
	m.AddStaticCyclesAt(2, 1000, 0, 0.5, p.LeakageRefC-20) // cool: less
	ref, hot, cool := m.StaticPJ(0), m.StaticPJ(1), m.StaticPJ(2)
	if !(cool < ref && ref < hot) {
		t.Fatalf("leakage ordering wrong: cool=%g ref=%g hot=%g", cool, ref, hot)
	}
	ratio := hot / ref
	want := math.Exp(p.LeakageTempCoeff * 45)
	if math.Abs(ratio-want) > 0.01 {
		t.Fatalf("hot/ref = %g, want %g", ratio, want)
	}
	// The temperature-free wrapper charges at the reference point.
	m2 := NewMeter(p, 1)
	m2.AddStaticCyclesAt(0, 1000, 0, 0.5, m2.Params().LeakageRefC)
	if math.Abs(m2.StaticPJ(0)-ref) > 1e-9 {
		t.Fatalf("wrapper = %g, want %g", m2.StaticPJ(0), ref)
	}
}

func TestWindowReset(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(p, 1)
	m.Link(0, 1)
	if got := m.TilePowerW(0, 0, 1000, 0.5, 0); got <= p.CoreIdleW {
		t.Fatalf("window did not accumulate: tile power %g", got)
	}
	m.WindowReset()
	if got := m.TilePowerW(0, 0, 1000, 0.5, 0); got != p.CoreIdleW {
		t.Fatalf("window not reset: tile power %g, want %g", got, p.CoreIdleW)
	}
	// The cumulative total survives the reset.
	if m.DynamicPJ(0) != p.LinkPJ {
		t.Fatalf("reset clobbered the cumulative total: %g", m.DynamicPJ(0))
	}
}

func TestTilePower(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(p, 1)
	// Idle tile: core idle power only.
	if got := m.TilePowerW(0, 0, 1000, 0.5, 0); math.Abs(got-p.CoreIdleW) > 1e-9 {
		t.Errorf("idle tile power = %g, want %g", got, p.CoreIdleW)
	}
	// Full activity adds CoreActiveW.
	if got := m.TilePowerW(0, 0, 1000, 0.5, 1.0); math.Abs(got-(p.CoreIdleW+p.CoreActiveW)) > 1e-9 {
		t.Errorf("active tile power = %g", got)
	}
	// Activity clamps.
	if got := m.TilePowerW(0, 0, 1000, 0.5, 7.0); math.Abs(got-(p.CoreIdleW+p.CoreActiveW)) > 1e-9 {
		t.Errorf("clamped tile power = %g", got)
	}
	if got := m.TilePowerW(0, 0, 1000, 0.5, -1); math.Abs(got-p.CoreIdleW) > 1e-9 {
		t.Errorf("negative-activity tile power = %g", got)
	}
	// Router energy contributes: 1000 pJ over 500 ns = 2 mW = 0.002 W.
	// Charge it as the window's static energy (dynamic energy is
	// count-based and cannot be set to an arbitrary value).
	got := m.TilePowerW(0, 1000, 1000, 0.5, 0)
	if math.Abs(got-(p.CoreIdleW+0.002)) > 1e-9 {
		t.Errorf("tile power with router energy = %g, want %g", got, p.CoreIdleW+0.002)
	}
	// Degenerate window.
	if got := m.TilePowerW(0, 0, 0, 0.5, 0.5); got != p.CoreIdleW {
		t.Errorf("zero-window tile power = %g", got)
	}
}

func TestScaledOperatingPoint(t *testing.T) {
	p := DefaultParams()
	// Identity at the calibration point.
	if p.Scaled(1.0) != p {
		t.Fatal("Scaled(1.0) is not the identity")
	}
	// Quadratic dynamic scaling, linear leakage scaling.
	s := p.Scaled(0.8)
	if math.Abs(s.LinkPJ-p.LinkPJ*0.64) > 1e-12 {
		t.Errorf("dynamic scaling wrong: %g", s.LinkPJ)
	}
	if math.Abs(s.RouterLeakageMW-p.RouterLeakageMW*0.8) > 1e-12 {
		t.Errorf("leakage scaling wrong: %g", s.RouterLeakageMW)
	}
	// Degenerate voltage leaves parameters untouched.
	if p.Scaled(0) != p || p.Scaled(-1) != p {
		t.Error("degenerate voltage mangled parameters")
	}
}

func TestEventString(t *testing.T) {
	if EvBufferWrite.String() != "buffer-write" || EvRLCompute.String() != "rl-compute" {
		t.Error("event names wrong")
	}
	if Event(99).String() == "" {
		t.Error("out-of-range event name empty")
	}
}

func TestAreaOverheadsMatchPaper(t *testing.T) {
	vsCRC, vsARQ, vsDT := AreaOverheads()
	if math.Abs(vsCRC-0.055) > 0.002 {
		t.Errorf("overhead vs CRC = %.4f, want ~0.055", vsCRC)
	}
	if math.Abs(vsARQ-0.048) > 0.002 {
		t.Errorf("overhead vs ARQ = %.4f, want ~0.048", vsARQ)
	}
	if math.Abs(vsDT-0.045) > 0.002 {
		t.Errorf("overhead vs DT = %.4f, want ~0.045", vsDT)
	}
}

func TestRouterAreaOrdering(t *testing.T) {
	crc, arq, dt, rl := RouterAreas()
	if !(crc.Total() < arq.Total() && arq.Total() < dt.Total() && dt.Total() < rl.Total()) {
		t.Errorf("area ordering wrong: crc=%g arq=%g dt=%g rl=%g",
			crc.Total(), arq.Total(), dt.Total(), rl.Total())
	}
	// The paper's headline: +2360 um^2 over the CRC router.
	if diff := rl.Total() - crc.Total(); math.Abs(diff-2360) > 1 {
		t.Errorf("RL addition = %g um^2, want 2360", diff)
	}
}

func TestEnergyOverheadMatchesPaper(t *testing.T) {
	over, base, frac := EnergyOverheadPerFlit(DefaultParams())
	if over != 0.16 || base != 13.1 {
		t.Errorf("overhead %g / baseline %g, want 0.16 / 13.1", over, base)
	}
	if math.Abs(frac-0.0122) > 0.001 {
		t.Errorf("fraction = %g, want ~1.2%%", frac)
	}
}

// eventCount is how many events of a class occurred network-wide (for
// EvLink, how many tile pitches of wire were traversed).
func eventCount(m *Meter, ev Event) int64 {
	var sum int64
	for r := 0; r < m.n; r++ {
		sum += m.cnt[r*int(numEvents)+int(ev)]
	}
	return sum
}
