package main

// Smoke test at -scale tiny: every workload, untraced and traced, in a few
// seconds. Run with `go test .` in this directory (the benchmark is a
// module of its own, outside the root module's `go test ./...`).

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
)

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationMatchesCode holds BENCHMARK.json and the metric and
// workload tables in the code to each other and to the contract's limits.
func TestDeclarationMatchesCode(t *testing.T) {
	d := loadDeclared(t)
	if d.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", d.RunSeconds, defaultSeconds)
	}
	if n := len(d.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code (limit 2..8)", n, len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, code %q (or their whys differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, decl []declaredMetric, defs []metricDef, limit int, bounded bool) {
		if len(decl) != len(defs) || len(decl) < 1 || len(decl) > limit {
			t.Fatalf("%s: %d declared, %d in code (limit %d)", kind, len(decl), len(defs), limit)
		}
		for i, m := range decl {
			if m.Name != defs[i].name || m.Unit != defs[i].unit || m.Better != defs[i].better {
				t.Errorf("%s %d: declared %+v, code %+v", kind, i, m, defs[i])
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: bad or repeated name/unit %q %q", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd, 16, true)
	check("per_layer", d.PerLayer, perLayer, 128, false)
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	return options{workload: workload, seed: 1, seconds: 0, trace: trace, scale: "tiny",
		scratch: t.TempDir(), outDir: t.TempDir(), pins: p}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload both ways and checks
// that exactly the declared metrics come out, finite, with every operation
// succeeding and the pinned digest matching.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			defs := metricDefs(trace)
			o := tinyOptions(t, w.name, trace)
			res, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.report.Correct || res.report.Failed != 0 || res.report.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, trace, res.report.Failed, res.report.Attempted, res.failures)
			}
			if res.pinned == "" && res.header.GOARCH == o.pins.GOARCH {
				t.Errorf("%s: no pinned digest for tiny seed 1", w.name)
			}
			if len(res.report.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.report.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.report.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w.name, trace, d.name, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, d.name, m.Value)
				}
			}
			if _, err := json.Marshal(res.report); err != nil {
				t.Errorf("%s trace=%v: report does not marshal: %v", w.name, trace, err)
			}
			if trace {
				if _, err := os.Stat(res.tracePath); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
			}
		}
	}
}

// TestCorruptedPinFails flips one pinned digest and expects the run to
// report a failed operation.
func TestCorruptedPinFails(t *testing.T) {
	o := tinyOptions(t, "parsec_rl", false)
	if o.pins.GOARCH != runtime.GOARCH {
		t.Skipf("digests are pinned for %s", o.pins.GOARCH)
	}
	key := pinKey("tiny", "parsec_rl", 1)
	bad := pins{GOARCH: o.pins.GOARCH, Digests: map[string]string{key: "0" + o.pins.Digests[key][1:]}}
	if bad.Digests[key] == o.pins.Digests[key] {
		bad.Digests[key] = "1" + o.pins.Digests[key][1:]
	}
	o.pins = bad
	res, err := runWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.report.Correct || res.report.Failed == 0 {
		t.Errorf("corrupted pin went unnoticed: %+v", res.report)
	}
}
