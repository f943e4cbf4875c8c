package rlnoc

// Guard against the magic link-index math the fabric refactor removed:
// every link-keyed table (fault model, error-probability cache) must go
// through topology.LinkIndex / topology.LinkSlots, not inline
// id*4+port arithmetic. This test greps the non-test sources of the
// packages that index links and fails on any `* 4 +` expression.
// Port-slot indexing of fixed per-router arrays and the per-epoch
// `epoch * 4` normalization divisors are port math, not link slots, and
// do not match the pattern; DESIGN.md section 10 records that
// distinction.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestNoInlineLinkIndexMath(t *testing.T) {
	magic := regexp.MustCompile(`\*\s*4\s*\+`)
	for _, dir := range []string{"internal/network", "internal/core", "internal/fault"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				if magic.MatchString(line) {
					t.Errorf("%s:%d: inline link-index math %q — use topology.LinkIndex", path, i+1, strings.TrimSpace(line))
				}
			}
		}
	}
}
