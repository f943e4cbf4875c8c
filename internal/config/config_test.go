package config

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
}

func TestSmallIsValid(t *testing.T) {
	c := Small()
	if err := c.Validate(); err != nil {
		t.Fatalf("Small() invalid: %v", err)
	}
	if c.Width != 4 || c.Height != 4 {
		t.Fatalf("Small() mesh = %dx%d, want 4x4", c.Width, c.Height)
	}
}

func TestDefaultMatchesTableII(t *testing.T) {
	c := Default()
	if c.Width != 8 || c.Height != 8 {
		t.Errorf("mesh = %dx%d, want 8x8", c.Width, c.Height)
	}
	if c.Routing != RoutingXY {
		t.Errorf("routing = %q, want xy", c.Routing)
	}
	if c.VCsPerPort != 4 {
		t.Errorf("VCs = %d, want 4", c.VCsPerPort)
	}
	if c.FlitBits != 128 {
		t.Errorf("flit bits = %d, want 128", c.FlitBits)
	}
	if c.FlitsPerPacket != 4 {
		t.Errorf("flits/packet = %d, want 4", c.FlitsPerPacket)
	}
	if c.VoltageV != 1.0 || c.FrequencyGHz != 2.0 {
		t.Errorf("operating point = %gV %gGHz, want 1.0V 2.0GHz", c.VoltageV, c.FrequencyGHz)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"tiny mesh", func(c *Config) { c.Width = 1 }},
		{"huge mesh", func(c *Config) { c.Height = 100 }},
		{"bad routing", func(c *Config) { c.Routing = "zigzag" }},
		{"one VC", func(c *Config) { c.VCsPerPort = 1 }},
		{"zero depth", func(c *Config) { c.VCDepth = 0 }},
		{"depth above 64", func(c *Config) { c.VCDepth = 65 }},
		{"odd flit bits", func(c *Config) { c.FlitBits = 100 }},
		{"64-bit flits", func(c *Config) { c.FlitBits = 64 }},
		{"zero flits", func(c *Config) { c.FlitsPerPacket = 0 }},
		{"zero voltage", func(c *Config) { c.VoltageV = 0 }},
		{"zero frequency", func(c *Config) { c.FrequencyGHz = 0 }},
		{"zero cycles", func(c *Config) { c.MaxCycles = 0 }},
		{"negative warmup", func(c *Config) { c.WarmupCycles = -1 }},
		{"error rate > 1", func(c *Config) { c.Fault.BaseErrorRate = 1.5 }},
		{"negative error rate", func(c *Config) { c.Fault.BaseErrorRate = -0.1 }},
		{"double-bit > 1", func(c *Config) { c.Fault.DoubleBitFraction = 2 }},
		{"relaxed > 1", func(c *Config) { c.Fault.RelaxedScale = 2 }},
		{"negative temp sensitivity", func(c *Config) { c.Fault.TempSensitivity = -1 }},
		{"negative util sensitivity", func(c *Config) { c.Fault.UtilSensitivity = -1 }},
		{"negative process sigma", func(c *Config) { c.Fault.ProcessSigma = -1 }},
		{"zero thermal R", func(c *Config) { c.Thermal.RThetaJA = 0 }},
		{"zero thermal C", func(c *Config) { c.Thermal.CThermal = 0 }},
		{"zero thermal period", func(c *Config) { c.Thermal.UpdatePeriod = 0 }},
		{"zero alpha", func(c *Config) { c.RL.Alpha = 0 }},
		{"alpha > 1", func(c *Config) { c.RL.Alpha = 1.5 }},
		{"gamma = 1", func(c *Config) { c.RL.Gamma = 1 }},
		{"epsilon > 1", func(c *Config) { c.RL.Epsilon = 1.5 }},
		{"zero RL step", func(c *Config) { c.RL.StepCycles = 0 }},
		{"mode mask beyond four modes", func(c *Config) { c.RL.ModeMask = 0b10000 }},
		{"unknown check", func(c *Config) { c.Checks = "ledger,credit" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Default()
			tc.mut(&c)
			if err := c.Validate(); err == nil {
				t.Fatalf("Validate() accepted invalid config (%s)", tc.name)
			}
		})
	}
}

// TestHardFaultScheduleRejectsAdaptive pins the constraint that hard
// faults require table-driven routing: the adaptive west-first router is
// coordinate math with no notion of a dead link. Validate is the gate, so
// no config that reaches network.New can trip it.
func TestHardFaultScheduleRejectsAdaptive(t *testing.T) {
	c := Small()
	c.Routing = RoutingWestFirst
	c.HardFaults = "100:l5.east"
	if err := c.Validate(); err == nil {
		t.Fatal("hard faults with adaptive routing accepted")
	}
	c.HardFaults = ""
	if err := c.Validate(); err != nil {
		t.Fatalf("westfirst without hard faults rejected: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	c := Default()
	c.Width = 6
	c.Seed = 99
	c.RL.Gamma = 0.9
	c.RL.ModeMask = 0b0011
	if err := c.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Width != 6 || got.Seed != 99 || got.RL.Gamma != 0.9 || got.RL.ModeMask != 0b0011 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
}

// TestLoadIgnoresRetiredKeys: pipeline_depth and output_buffer were
// knobs nothing but Validate read, and the fast-forward switch turned off
// a cycle-loop jump that no longer exists; a config file (or a campaign
// manifest, decoded the same way) written while they existed still loads.
// The last key is split so a grep for it lists live uses only.
func TestLoadIgnoresRetiredKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, []byte(`{"width": 6, "pipeline_depth": 4, "output_buffer": 8, "no_fast_`+`forward": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Width != 6 {
		t.Fatalf("width = %d, want 6", got.Width)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("Load of missing file succeeded")
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	if err := os.WriteFile(path, []byte(`{"width": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted invalid config")
	}
}

func TestHelpers(t *testing.T) {
	c := Default()
	if got := c.Routers(); got != 64 {
		t.Errorf("Routers() = %d, want 64", got)
	}
	if got := c.CyclePeriodNS(); got != 0.5 {
		t.Errorf("CyclePeriodNS() = %g, want 0.5", got)
	}
}

func TestSuiteWorkerCount(t *testing.T) {
	c := Default()
	if got, want := c.SuiteWorkerCount(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("SuiteWorkers 0 resolved to %d workers, want GOMAXPROCS = %d", got, want)
	}
	c.SuiteWorkers = 3
	if got := c.SuiteWorkerCount(); got != 3 {
		t.Errorf("SuiteWorkers 3 resolved to %d workers", got)
	}
}
