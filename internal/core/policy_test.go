package core

import (
	"bytes"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/network"
	"rlnoc/internal/rl"
)

func TestPolicyDumpRenders(t *testing.T) {
	cfg := config.Small()
	c := NewRLController(cfg, 2)
	for i := 0; i < 30; i++ {
		c.Decide(i%2, network.Observation{
			Features:      rl.Features{TemperatureC: 60 + float64(10*(i%3))},
			WindowLatency: 8, ControlPowerW: 0.002,
		})
	}
	out := c.PolicyDump(5)
	if out == "" || !bytes.Contains([]byte(out), []byte("distinct states visited")) {
		t.Fatalf("dump malformed:\n%s", out)
	}
}
