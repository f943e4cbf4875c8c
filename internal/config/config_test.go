package config

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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
	if c.VCsPerPort != 4 {
		t.Errorf("VCs = %d, want 4", c.VCsPerPort)
	}
	if c.FlitBits != 128 {
		t.Errorf("flit bits = %d, want 128", c.FlitBits)
	}
	if c.FlitsPerPacket != 4 {
		t.Errorf("flits/packet = %d, want 4", c.FlitsPerPacket)
	}
	if c.VoltageV != 1.0 || ClockGHz != 2.0 {
		t.Errorf("operating point = %gV %gGHz, want 1.0V 2.0GHz", c.VoltageV, ClockGHz)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"tiny mesh", func(c *Config) { c.Width = 1 }},
		{"huge mesh", func(c *Config) { c.Height = 100 }},
		{"one VC", func(c *Config) { c.VCsPerPort = 1 }},
		{"zero depth", func(c *Config) { c.VCDepth = 0 }},
		{"depth above 64", func(c *Config) { c.VCDepth = 65 }},
		{"odd flit bits", func(c *Config) { c.FlitBits = 100 }},
		{"64-bit flits", func(c *Config) { c.FlitBits = 64 }},
		{"zero flits", func(c *Config) { c.FlitsPerPacket = 0 }},
		{"zero voltage", func(c *Config) { c.VoltageV = 0 }},
		{"zero cycles", func(c *Config) { c.MaxCycles = 0 }},
		{"negative warmup", func(c *Config) { c.WarmupCycles = -1 }},
		{"error rate > 1", func(c *Config) { c.Fault.BaseErrorRate = 1.5 }},
		{"negative error rate", func(c *Config) { c.Fault.BaseErrorRate = -0.1 }},
		{"negative temp sensitivity", func(c *Config) { c.Fault.TempSensitivity = -1 }},
		{"negative util sensitivity", func(c *Config) { c.Fault.UtilSensitivity = -1 }},
		{"negative process sigma", func(c *Config) { c.Fault.ProcessSigma = -1 }},
		{"zero thermal period", func(c *Config) { c.Thermal.UpdatePeriod = 0 }},
		{"gamma = 1", func(c *Config) { c.RL.Gamma = 1 }},
		{"epsilon > 1", func(c *Config) { c.RL.Epsilon = 1.5 }},
		{"zero RL step", func(c *Config) { c.RL.StepCycles = 0 }},
		{"mode mask beyond four modes", func(c *Config) { c.RL.ModeMask = 0b10000 }},
		{"unknown check", func(c *Config) { c.Checks = "ledger,credit" }},
		{"check subset", func(c *Config) { c.Checks = "ledger" }},
		{"negative test epsilon", func(c *Config) { c.RL.TestEpsilon = -1 }},
		{"no timing slack", func(c *Config) { c.VoltageV = 0.5 }},
		{"error rate too large to calibrate", func(c *Config) { c.Fault.BaseErrorRate = 1 }},
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

// save writes c as the indented JSON a config file holds.
func save(t *testing.T, c Config, path string) {
	t.Helper()
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
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
	save(t, c, path)
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Width != 6 || got.Seed != 99 || got.RL.Gamma != 0.9 || got.RL.ModeMask != 0b0011 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
}

// TestLoadRejectsUnknownKeys: a key that names no field fails by name
// instead of silently running the default it was meant to override, and
// so does anything after the object; a partial nested object still merges
// over the defaults. The model constants that were once keys (the clock,
// the dimension order, the fault and thermal calibrations, the Q-routing
// section) fail the same way: a file that sets one asks for a model this
// build does not run. So do the router knobs that were never read and the
// switch for a cycle-loop jump that no longer exists.
// The no-fast-forward key is split so a grep for it lists live uses only.
func TestLoadRejectsUnknownKeys(t *testing.T) {
	for _, tc := range []struct{ name, json, wantErr string }{
		{"top-level typo", `{"vcs_per_prot": 8}`, `unknown field "vcs_per_prot"`},
		{"nested typo", `{"rl": {"alhpa": 0.5}}`, `unknown field "alhpa"`},
		{"removed freeze switch", `{"rl": {"freeze_after_` + `pretrain": true}}`, `unknown field "freeze_after_` + `pretrain"`},
		// The learning rate is the visit-decayed rule, not a setting, and
		// Double Q-learning is gone.
		{"removed alpha", `{"rl": {"alpha": 0.3}}`, `unknown field "alpha"`},
		{"removed alpha decay switch", `{"rl": {"alpha_decay": false}}`, `unknown field "alpha_decay"`},
		{"removed double Q switch", `{"rl": {"double_q": true}}`, `unknown field "double_q"`},
		{"removed routing", `{"routing": "xy"}`, `unknown field "routing"`},
		{"removed frequency", `{"frequency_ghz": 2}`, `unknown field "frequency_ghz"`},
		{"removed reference temperature", `{"fault": {"t_ref_c": 50}}`, `unknown field "t_ref_c"`},
		{"removed double-bit fraction", `{"fault": {"double_bit_fraction": 0.25}}`, `unknown field "double_bit_fraction"`},
		{"removed relaxed scale", `{"fault": {"relaxed_scale": 0.001}}`, `unknown field "relaxed_scale"`},
		{"removed nominal slack", `{"fault": {"nominal_slack": 0.08}}`, `unknown field "nominal_slack"`},
		{"removed critical paths", `{"fault": {"critical_paths": 16}}`, `unknown field "critical_paths"`},
		{"removed ambient", `{"thermal": {"ambient_c": 45}}`, `unknown field "ambient_c"`},
		{"removed vertical resistance", `{"thermal": {"r_theta_ja": 25}}`, `unknown field "r_theta_ja"`},
		{"removed lateral resistance", `{"thermal": {"r_theta_lateral": 60}}`, `unknown field "r_theta_lateral"`},
		{"removed capacitance", `{"thermal": {"c_thermal": 1e-6}}`, `unknown field "c_thermal"`},
		{"removed initial temperature", `{"thermal": {"initial_c": 55}}`, `unknown field "initial_c"`},
		{"removed pipeline depth", `{"pipeline_depth": 4}`, `unknown field "pipeline_depth"`},
		{"removed output buffer", `{"output_buffer": 8}`, `unknown field "output_buffer"`},
		{"removed fast-forward switch", `{"no_fast_` + `forward": true}`, `unknown field "no_fast_` + `forward"`},
		// The scheme switches Q-routing on; its knobs are constants.
		{"removed qroute", `{"qroute": {}}`, `unknown field "qroute"`},
		{"removed qroute enabled", `{"qroute": {"enabled": true}}`, `unknown field "qroute"`},
		{"removed qroute alpha", `{"qroute": {"alpha": 0.3}}`, `unknown field "qroute"`},
		{"removed qroute epsilon", `{"qroute": {"epsilon": 0.05}}`, `unknown field "qroute"`},
		{"removed qroute congestion weight", `{"qroute": {"congestion_weight": 4}}`, `unknown field "qroute"`},
		{"removed qroute escape timeout", `{"qroute": {"escape_timeout": 8}}`, `unknown field "qroute"`},
		{"trailing object", `{"width": 6} {"width": 5}`, "trailing data"},
		{"trailing garbage", `{"width": 6} x`, "trailing data"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cfg.json")
			if err := os.WriteFile(path, []byte(tc.json), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(path); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Load(%s) err = %v, want one containing %q", tc.json, err, tc.wantErr)
			}
		})
	}
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, []byte("{\"rl\": {\"gamma\": 0.9}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want := Default()
	want.RL.Gamma = 0.9
	if got != want {
		t.Fatalf("partial rl object: got %+v, want the defaults with gamma 0.9", got.RL)
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

// TestNormalQuantile: the bisection Calibrate solves z0 with inverts the
// standard normal CDF to within its tolerance across both tails.
func TestNormalQuantile(t *testing.T) {
	for _, p := range []float64{1e-9, 0.001, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9} {
		z := normalQuantile(p)
		if cdf := 0.5 * (1 + math.Erf(z/math.Sqrt2)); math.Abs(cdf-p) > 1e-9 {
			t.Errorf("quantile(%g) = %g -> cdf %g", p, z, cdf)
		}
	}
}

// TestCalibrateMatchesFaultModel: the operating point Validate gates on is
// the one the default fault model runs at.
func TestCalibrateMatchesFaultModel(t *testing.T) {
	c := Default()
	cal, err := c.Fault.Calibrate(c.VoltageV)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 - nominalSlack; math.Abs(cal.Mu0-want) > 1e-15 || cal.Z0 <= 0 {
		t.Fatalf("calibration at nominal voltage = %+v, want Mu0 %g and a positive Z0", cal, want)
	}
	// Validate skips the bisection (operatingPoint): its answer is
	// positive exactly when the level it inverts is above one half.
	for _, q := range []float64{0.25, math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1), 0.75} {
		if z := normalQuantile(q); (z > 0) != (q > 0.5) {
			t.Fatalf("quantile(%v) = %v: the gate's sign test disagrees", q, z)
		}
	}
}
