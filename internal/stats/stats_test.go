package stats

import (
	"math"
	"testing"
)

func TestMeasurementGate(t *testing.T) {
	c := New()
	c.PacketDelivered(100, 4)
	if c.PacketsDelivered != 0 {
		t.Fatal("counted while not measuring")
	}
	c.SetMeasuring(true)
	if !c.measuring {
		t.Fatal("measuring false after SetMeasuring(true)")
	}
	c.PacketDelivered(100, 4)
	if c.PacketsDelivered != 1 || c.FlitsDelivered != 4 {
		t.Fatalf("delivered=%d flits=%d", c.PacketsDelivered, c.FlitsDelivered)
	}
}

func TestMeasuref(t *testing.T) {
	c := New()
	c.Measuref(func(c *Collector) { c.CRCFailures++ })
	if c.CRCFailures != 0 {
		t.Fatal("Measuref ran while gated")
	}
	c.SetMeasuring(true)
	c.Measuref(func(c *Collector) { c.CRCFailures++ })
	if c.CRCFailures != 1 {
		t.Fatal("Measuref did not run")
	}
}

func TestLatencyAggregates(t *testing.T) {
	c := New()
	c.SetMeasuring(true)
	c.PacketDelivered(10, 1)
	c.PacketDelivered(30, 1)
	if got := c.MeanLatency(); got != 20 {
		t.Errorf("MeanLatency = %g, want 20", got)
	}
	if got := c.latMax; got != 30 {
		t.Errorf("MaxLatency = %d, want 30", got)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	c := New()
	c.SetMeasuring(true)
	// 90 fast packets, 9 slow, 1 terrible.
	for i := 0; i < 90; i++ {
		c.PacketDelivered(20, 1)
	}
	for i := 0; i < 9; i++ {
		c.PacketDelivered(200, 1)
	}
	c.PacketDelivered(5000, 1)
	if p50 := c.LatencyPercentile(0.5); p50 != 32 { // bucket [16,32)
		t.Errorf("p50 = %d, want 32 (bucket bound above 20)", p50)
	}
	if p95 := c.LatencyPercentile(0.95); p95 != 256 { // bucket [128,256)
		t.Errorf("p95 = %d, want 256", p95)
	}
	if p999 := c.LatencyPercentile(0.999); p999 != 8192 {
		t.Errorf("p99.9 = %d, want 8192", p999)
	}
	if q := c.LatencyPercentile(2); q < 5000 {
		t.Errorf("q>1 clamps to max bucket, got %d", q)
	}
	s := c.Summarize()
	if s.P50Latency == 0 || s.P95Latency < s.P50Latency || s.P99Latency < s.P95Latency {
		t.Errorf("summary percentiles inconsistent: %+v", s)
	}
}

func TestLatencyPercentileEmpty(t *testing.T) {
	c := New()
	if c.LatencyPercentile(0.5) != 0 {
		t.Error("empty percentile not 0")
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 1023: 10, 1 << 40: histBuckets - 1}
	for lat, want := range cases {
		if got := bucketOf(lat); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", lat, got, want)
		}
	}
}

func TestLatencyEmptyIsZero(t *testing.T) {
	c := New()
	if c.MeanLatency() != 0 {
		t.Fatal("empty collector returned nonzero latency")
	}
}

func TestRetransmittedPacketEquivalents(t *testing.T) {
	c := New()
	c.SourceRetransmissions = 10
	c.LinkRetransmissions = 8
	c.PreRetransmissions = 4 // proactive: excluded from the Fig. 6 metric
	if got := c.RetransmittedPacketEquivalents(4); got != 12 {
		t.Errorf("equivalents = %g, want 12", got)
	}
	// Degenerate packet size clamps to 1.
	if got := c.RetransmittedPacketEquivalents(0); got != 18 {
		t.Errorf("equivalents(0) = %g, want 18", got)
	}
}

func TestSummarize(t *testing.T) {
	c := New()
	c.SetMeasuring(true)
	c.PacketsInjected = 5
	c.PacketDelivered(10, 4)
	c.ErrorsInjected = 3
	c.ECCCorrections = 2
	c.ECCDetections = 1
	c.CRCFailures = 1
	c.SourceRetransmissions = 1
	s := c.Summarize()
	if s.PacketsInjected != 5 || s.PacketsDelivered != 1 || s.MeanLatency != 10 ||
		s.ErrorsInjected != 3 || s.ECCCorrections != 2 || s.ECCDetections != 1 ||
		s.CRCFailures != 1 || s.SourceRetransmissions != 1 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestStdDev(t *testing.T) {
	if StdDev(nil) != 0 || StdDev([]float64{5}) != 0 {
		t.Error("degenerate StdDev nonzero")
	}
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2.138) > 0.01 {
		t.Errorf("StdDev = %g, want ~2.138", got)
	}
}

func TestMeanHelpers(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %g", got)
	}
}
