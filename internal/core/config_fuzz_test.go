package core

import (
	"encoding/json"
	"strings"
	"testing"

	"rlnoc/internal/config"
)

// FuzzConfig feeds config JSON — the form a config file, a campaign spec
// and a snapshot carry it in — through config.Validate and then NewSim
// under every name ParseScheme accepts, through each controller's first
// decision. Nothing may panic or spin, and Validate must be the gate:
// NewSim builds no config Validate rejects, and builds every config it
// accepts, save the one check that needs more than the config and lives
// in internal/fault: the hard-fault schedule against the fabric. The error
// model's calibration at the operating point is Validate's own
// (config.FaultConfig.Calibrate).
func FuzzConfig(f *testing.F) {
	for _, tune := range []func(*config.Config){
		func(*config.Config) {},
		func(c *config.Config) { c.RL.ModeMask = 0b0011 },
		func(c *config.Config) { c.RL.ModeMask = 0b1000; c.RL.SharedTable = false },
		func(c *config.Config) { c.Topology = config.TopologyTorus; c.VCsPerPort = 8 },
		func(c *config.Config) { c.HardFaults = "300:l5.east,900:r3" },
		func(c *config.Config) { c.Thermal.UpdatePeriod = 125 },
	} {
		cfg := config.Small()
		tune(&cfg)
		data, err := json.Marshal(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"rl":{"mode_mask":16}}`))
	f.Add([]byte(`{"width":2,"height":3,"vc_depth":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := config.Small()
		if json.Unmarshal(data, &cfg) != nil {
			return
		}
		// Size is not what this target explores, and every fabric Validate
		// accepts is legal, but not quick: a 64x64 one holds 4096 per-router
		// Q-tables of about 32 KB each and up to 15.7M flit slots. One input
		// stays within Small's 4x4 so the target keeps its pace.
		if cfg.Width*cfg.Height > 16 {
			return
		}
		for _, spec := range schemeTable {
			run := SchemeConfig(cfg, spec.name)
			verr := run.Validate()
			sim, err := NewSim(cfg, spec.name)
			if err == nil {
				sim.Controller() // settles the cycle-0 consult: every router's first Decide
			}
			switch {
			case verr != nil && err == nil:
				t.Errorf("%s: NewSim built a config Validate rejects (%v)", spec.name, verr)
			case verr == nil && err != nil && !strings.HasPrefix(err.Error(), "fault: hard fault "):
				t.Errorf("%s: Validate accepts a config NewSim cannot build: %v", spec.name, err)
			}
		}
	})
}
