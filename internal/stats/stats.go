// Package stats collects the simulator's measurement counters: end-to-end
// packet latency, retransmission traffic (both end-to-end packet
// retransmissions and link-level flit retransmissions), error-control
// outcomes and flit/packet drops. The controllers' per-router epoch
// window lives with the routers in internal/network.
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
}

// New builds a collector. Measurement starts disabled.
func New() *Collector { return &Collector{} }

// SetMeasuring enables or disables the global counters (the drop counters
// always accumulate).
func (c *Collector) SetMeasuring(on bool) { c.measuring = on }

// Measuref runs fn only while measuring; a tiny helper for counters
// incremented from hot paths.
func (c *Collector) Measuref(fn func(*Collector)) {
	if c.measuring {
		fn(c)
	}
}

// PacketDelivered records a data-packet delivery with its end-to-end
// latency (cycles).
func (c *Collector) PacketDelivered(e2eLatency int64, flits int) {
	if !c.measuring {
		return
	}
	c.PacketsDelivered++
	c.FlitsDelivered += int64(flits)
	c.latSum += float64(e2eLatency)
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
