// Package stats collects the simulator's measurement counters: end-to-end
// packet latency, retransmission traffic (both end-to-end packet
// retransmissions and link-level flit retransmissions), error-control
// outcomes, and per-router windowed aggregates used by the RL reward.
package stats

import (
	"math"
	"math/bits"
)

// histBuckets is the number of power-of-two latency histogram buckets
// (bucket i covers [2^(i-1), 2^i) cycles; bucket 0 covers [0,1)).
const histBuckets = 24

// Collector accumulates run statistics. Measurement can be gated so that
// warm-up traffic is ignored. Not safe for concurrent use.
type Collector struct {
	measuring bool

	// Packet accounting.
	PacketsInjected  int64
	PacketsDelivered int64
	FlitsDelivered   int64

	// Latency (cycles), over delivered data packets.
	latSum   float64
	latCount int64
	latMax   int64
	netSum   float64 // network latency (inject -> deliver)
	// latHist buckets latencies as [0,1), [1,2), [2,4), ... doubling up
	// to 2^(histBuckets-1); the last bucket is open-ended.
	latHist [histBuckets]int64

	// Retransmission traffic.
	SourceRetransmissions int64 // whole packets re-injected at the source
	LinkRetransmissions   int64 // flits re-sent by link-level ARQ
	PreRetransmissions    int64 // duplicate flits sent by Mode 2

	// Error-control outcomes.
	ErrorsInjected   int64 // bit-error events on links
	ECCCorrections   int64 // single-bit errors corrected by SECDED
	ECCDetections    int64 // double-bit errors detected (NACKed)
	CRCFailures      int64 // packets failing the destination CRC check
	SilentCorruption int64 // delivered packets whose payload check failed silently (must stay 0)

	// drops counts flit/packet discards by reason; see drops.go. Always
	// on (not gated on measuring).
	drops [NumDropReasons]int64

	// Per-router windows (reset each control epoch).
	routers     int
	winLatSum   []float64
	winLatCount []int64
	winFlitsIn  []int64
	winFlitsOut []int64
	winNACKsIn  []int64 // NACKs received by the router (from downstream)
	winNACKsOut []int64 // NACKs sent by the router (to upstream)
	// winResidual counts corrupted flits the router let through on its
	// ECC-bypassed output links, as observed by the downstream CRC
	// snooper (the reliability term of the RL reward).
	winResidual []int64
}

// New builds a collector for n routers. Measurement starts disabled.
func New(n int) *Collector {
	return &Collector{
		routers:     n,
		winLatSum:   make([]float64, n),
		winLatCount: make([]int64, n),
		winFlitsIn:  make([]int64, n),
		winFlitsOut: make([]int64, n),
		winNACKsIn:  make([]int64, n),
		winNACKsOut: make([]int64, n),
		winResidual: make([]int64, n),
	}
}

// SetMeasuring enables or disables the global counters. Per-router window
// counters always accumulate (the controllers need them even during
// warm-up).
func (c *Collector) SetMeasuring(on bool) { c.measuring = on }

// Measuring reports whether global counters are live.
func (c *Collector) Measuring() bool { return c.measuring }

// Measuref runs fn only while measuring; a tiny helper for counters
// incremented from hot paths.
func (c *Collector) Measuref(fn func(*Collector)) {
	if c.measuring {
		fn(c)
	}
}

// PacketDelivered records a data-packet delivery with its end-to-end and
// network latencies (cycles).
func (c *Collector) PacketDelivered(e2eLatency, netLatency int64, flits int) {
	if !c.measuring {
		return
	}
	c.PacketsDelivered++
	c.FlitsDelivered += int64(flits)
	c.latSum += float64(e2eLatency)
	c.netSum += float64(netLatency)
	c.latCount++
	if e2eLatency > c.latMax {
		c.latMax = e2eLatency
	}
	c.latHist[bucketOf(e2eLatency)]++
}

func bucketOf(latency int64) int {
	if latency < 1 {
		return 0
	}
	b := bits.Len64(uint64(latency))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// LatencyPercentile returns an upper bound on the q-quantile (q in (0,1])
// of the end-to-end latency distribution, resolved to the power-of-two
// histogram buckets. Returns 0 when nothing was delivered.
func (c *Collector) LatencyPercentile(q float64) int64 {
	if c.latCount == 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(c.latCount)))
	var cum int64
	for b := 0; b < histBuckets; b++ {
		cum += c.latHist[b]
		if cum >= target {
			if b == histBuckets-1 {
				return c.latMax
			}
			return 1 << uint(b) // bucket upper bound
		}
	}
	return c.latMax
}

// MeanLatency returns the average end-to-end latency in cycles.
func (c *Collector) MeanLatency() float64 {
	if c.latCount == 0 {
		return 0
	}
	return c.latSum / float64(c.latCount)
}

// MeanNetworkLatency returns the average injection-to-delivery latency.
func (c *Collector) MeanNetworkLatency() float64 {
	if c.latCount == 0 {
		return 0
	}
	return c.netSum / float64(c.latCount)
}

// MaxLatency returns the worst observed end-to-end latency.
func (c *Collector) MaxLatency() int64 { return c.latMax }

// RetransmittedPacketEquivalents returns the fault-caused retransmission
// traffic in packet equivalents: source (end-to-end) retransmissions plus
// NACK-triggered link-level flit retransmissions divided by the packet
// size. Mode 2 pre-retransmissions are proactive, not fault-caused, and
// are excluded (they still show up in link energy and occupancy). This is
// the quantity Fig. 6 plots.
func (c *Collector) RetransmittedPacketEquivalents(flitsPerPacket int) float64 {
	if flitsPerPacket < 1 {
		flitsPerPacket = 1
	}
	return float64(c.SourceRetransmissions) +
		float64(c.LinkRetransmissions)/float64(flitsPerPacket)
}

// --- per-router windows -------------------------------------------------

// RouterPacketLatency attributes a delivered packet's latency to router r
// (every router on the packet's path calls this), feeding the RL reward.
// The value is the packet's per-hop latency (end-to-end divided by path
// length): raw end-to-end latency varies ~6x with distance on an 8x8
// mesh, which would swamp the per-hop action effects the reward must
// expose.
func (c *Collector) RouterPacketLatency(r int, perHopLatency float64) {
	c.winLatSum[r] += perHopLatency
	c.winLatCount[r]++
}

// RouterFlitIn counts a flit received by router r on any input port.
func (c *Collector) RouterFlitIn(r int) { c.winFlitsIn[r]++ }

// RouterFlitOut counts a flit sent by router r on any output port.
func (c *Collector) RouterFlitOut(r int) { c.winFlitsOut[r]++ }

// RouterNACKIn counts a link-level NACK received by router r.
func (c *Collector) RouterNACKIn(r int) { c.winNACKsIn[r]++ }

// RouterNACKOut counts a link-level NACK sent by router r.
func (c *Collector) RouterNACKOut(r int) { c.winNACKsOut[r]++ }

// RouterResidualCorrupt counts a corrupted flit that router r forwarded
// on an ECC-bypassed link (caught downstream by the CRC snooper).
func (c *Collector) RouterResidualCorrupt(r int) { c.winResidual[r]++ }

// WindowResidualRate returns router r's residual-corruption rate per flit
// sent this window.
func (c *Collector) WindowResidualRate(r int) float64 {
	if c.winFlitsOut[r] == 0 {
		return 0
	}
	return float64(c.winResidual[r]) / float64(c.winFlitsOut[r])
}

// WindowLatency returns router r's mean packet latency this window, or
// fallback if no packet traversed it.
func (c *Collector) WindowLatency(r int, fallback float64) float64 {
	if c.winLatCount[r] == 0 {
		return fallback
	}
	return c.winLatSum[r] / float64(c.winLatCount[r])
}

// WindowFlitsIn returns flits received by router r this window.
func (c *Collector) WindowFlitsIn(r int) int64 { return c.winFlitsIn[r] }

// WindowFlitsOut returns flits sent by router r this window.
func (c *Collector) WindowFlitsOut(r int) int64 { return c.winFlitsOut[r] }

// WindowNACKRateIn returns NACKs received per flit sent by router r.
func (c *Collector) WindowNACKRateIn(r int) float64 {
	if c.winFlitsOut[r] == 0 {
		return 0
	}
	return float64(c.winNACKsIn[r]) / float64(c.winFlitsOut[r])
}

// WindowNACKRateOut returns NACKs sent per flit received by router r.
func (c *Collector) WindowNACKRateOut(r int) float64 {
	if c.winFlitsIn[r] == 0 {
		return 0
	}
	return float64(c.winNACKsOut[r]) / float64(c.winFlitsIn[r])
}

// WindowReset clears the per-router windows.
func (c *Collector) WindowReset() {
	for i := 0; i < c.routers; i++ {
		c.winLatSum[i] = 0
		c.winLatCount[i] = 0
		c.winFlitsIn[i] = 0
		c.winFlitsOut[i] = 0
		c.winNACKsIn[i] = 0
		c.winNACKsOut[i] = 0
		c.winResidual[i] = 0
	}
}

// Summary is a plain-data snapshot of the headline metrics.
type Summary struct {
	PacketsInjected       int64
	PacketsDelivered      int64
	FlitsDelivered        int64
	MeanLatency           float64
	P50Latency            int64
	P95Latency            int64
	P99Latency            int64
	MaxLatency            int64
	SourceRetransmissions int64
	LinkRetransmissions   int64
	PreRetransmissions    int64
	ErrorsInjected        int64
	ECCCorrections        int64
	ECCDetections         int64
	CRCFailures           int64
	SilentCorruption      int64
}

// Summarize captures the headline counters.
func (c *Collector) Summarize() Summary {
	return Summary{
		PacketsInjected:       c.PacketsInjected,
		PacketsDelivered:      c.PacketsDelivered,
		FlitsDelivered:        c.FlitsDelivered,
		MeanLatency:           c.MeanLatency(),
		P50Latency:            c.LatencyPercentile(0.50),
		P95Latency:            c.LatencyPercentile(0.95),
		P99Latency:            c.LatencyPercentile(0.99),
		MaxLatency:            c.latMax,
		SourceRetransmissions: c.SourceRetransmissions,
		LinkRetransmissions:   c.LinkRetransmissions,
		PreRetransmissions:    c.PreRetransmissions,
		ErrorsInjected:        c.ErrorsInjected,
		ECCCorrections:        c.ECCCorrections,
		ECCDetections:         c.ECCDetections,
		CRCFailures:           c.CRCFailures,
		SilentCorruption:      c.SilentCorruption,
	}
}

// Mean returns the arithmetic mean of xs (NaN-free; 0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (0 for fewer than
// two values).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)-1))
}

// GeoMean returns the geometric mean of positive xs; zero/negative inputs
// are skipped.
func GeoMean(xs []float64) float64 {
	var logSum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			logSum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
