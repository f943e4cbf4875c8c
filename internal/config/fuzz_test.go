package config

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoad: Load never panics on arbitrary bytes, and a config it accepts
// is valid and loads back equal after it is written out.
func FuzzLoad(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"width": 6, "rl": {"gamma": 0.9, "mode_mask": 3}}`,
		`{"vcs_per_prot": 8}`,
		`{"pipeline_depth": 4, "output_buffer": 8}`,
		`{"topology": "torus", "checks": "all", "hard_faults": "5000:r3"}`,
		`{"width": 6} {"width": 5}`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Load(in)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("Load accepted an invalid config: %v", err)
		}
		out := filepath.Join(dir, "out.json")
		save(t, c, out)
		back, err := Load(out)
		if err != nil {
			t.Fatalf("saved config does not load: %v", err)
		}
		if back != c {
			t.Fatalf("round trip changed the config:\n got %+v\nwant %+v", back, c)
		}
	})
}
