package network

import (
	"fmt"

	"rlnoc/internal/rl"
	"rlnoc/internal/snap"
)

// Mode is a fault-tolerant operation mode of the proposed router
// (Section III of the paper). The mode governs a router's output
// ECC-links: its own encoders and the downstream routers' decoders.
type Mode uint8

// The four operation modes.
const (
	// Mode0 (minimum error level): ECC-links disabled and bypassed.
	// Flits travel unprotected; only the destination CRC catches errors,
	// costing a full end-to-end packet retransmission. Saves the ECC
	// pipeline cycle and codec energy.
	Mode0 Mode = iota
	// Mode1 (low error level): ECC-links enabled; SECDED corrects
	// single-bit errors, double-bit errors trigger a link-level NACK and
	// flit retransmission.
	Mode1
	// Mode2 (medium error level): ECC enabled plus flit
	// pre-retransmission — every flit is followed by a duplicate one
	// cycle later, so an uncorrectable first copy costs one cycle instead
	// of a NACK round trip. Halves the channel's peak bandwidth.
	Mode2
	// Mode3 (high error level): ECC enabled plus timing relaxation — two
	// extra cycles precede every transmission, driving the timing-error
	// probability near zero. Third of the peak bandwidth, but no
	// retransmissions.
	Mode3
	// NumModes is the size of the action space.
	NumModes
)

func (m Mode) String() string {
	if m >= NumModes {
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
	return [NumModes]string{"mode0-bypass", "mode1-ecc", "mode2-preretx", "mode3-relax"}[m]
}

// ECCOn reports whether the mode powers the ECC-link codecs.
func (m Mode) ECCOn() bool { return m != Mode0 }

// LinkOccupancy returns how many cycles one flit transmission occupies the
// channel under this mode.
func (m Mode) LinkOccupancy() int64 {
	switch m {
	case Mode2:
		return 2 // original + pre-retransmitted copy
	case Mode3:
		return 3 // stall signal + stall + transmit
	default:
		return 1
	}
}

// ExtraLatency returns the added cycles before a flit arrives downstream:
// one for the ECC encode/decode stage when enabled, plus Mode 3's two
// relaxation cycles.
func (m Mode) ExtraLatency() int64 {
	var extra int64
	if m.ECCOn() {
		extra++
	}
	if m == Mode3 {
		extra += 2
	}
	return extra
}

// ControllerKind identifies which control policy (and its per-flit energy
// overhead) a scheme uses.
type ControllerKind int

// Controller kinds.
const (
	ControllerNone ControllerKind = iota // static schemes (CRC, ARQ+ECC)
	ControllerDT
	ControllerRL
)

// Observation is what a per-router controller sees at each decision epoch.
type Observation struct {
	// Features is the Table-I state vector, aggregated per router.
	Features rl.Features
	// WindowLatency is the paper's reward numerator input: the mean, over
	// the epoch's deliveries whose recorded path includes this router, of
	// latency/(hops+1) in cycles; neutralLatency when there are none.
	WindowLatency float64
	// ControlPowerW is the router's average power over the epoch in
	// watts, minus the always-on router leakage — the action-controllable
	// share (dynamic activity plus the gateable ECC-codec leakage).
	// Feeding this to the reward instead of the total keeps the constant
	// leakage floor from compressing per-action differences below the
	// noise.
	ControlPowerW float64
	// NetMeanReward is the network-wide mean of the raw Eq. (3) reward
	// 1/(latency x power) this epoch. Controllers can divide by it to
	// cancel epoch-wide fluctuations (traffic phases, thermal drift) that
	// otherwise swamp per-action differences.
	NetMeanReward float64
	// MeasuredErrorRate is the true injected per-flit error rate on the
	// router's output links this epoch (the DT training label).
	MeasuredErrorRate float64
	// ResidualErrorRate is the rate of corrupted flits this router let
	// through on ECC-bypassed output links, per flit sent, as observed by
	// the downstream CRC snoopers — the reliability input of the reward.
	ResidualErrorRate float64
}

// Controller decides each router's operation mode once per epoch.
type Controller interface {
	// Decide returns the mode router id applies for the next epoch.
	Decide(id int, obs Observation) Mode
}

// StaticController always answers with a fixed mode (the CRC and ARQ+ECC
// baselines).
type StaticController struct{ Fixed Mode }

// Decide implements Controller.
func (s StaticController) Decide(int, Observation) Mode { return s.Fixed }

// Snap makes the static controllers checkpointable: they are stateless,
// so the section tag alone keeps the stream positions aligned.
func (StaticController) Snap(c *snap.Codec) error {
	c.Section("SCTL")
	return c.Err()
}
