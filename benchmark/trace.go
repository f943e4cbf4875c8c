package main

// Phase spans. Every span is recorded from the benchmark's own files,
// around a call into a layer; nothing inside the simulator is
// instrumented. Spans are kept in memory and written out when the run
// ends. All spans are opened and closed on the main goroutine, so the
// parent of a span is simply the innermost span still open.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"` // since the tracer was created
	EndNS    int64  `json:"end_ns"`
}

type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns the function that closes it and reports
// how long it lasted. On a nil tracer it only times, so call sites read the
// same traced or not.
func (t *tracer) begin(name string) func() time.Duration {
	start := time.Now()
	if t == nil {
		return func() time.Duration { return time.Since(start) }
	}
	id := t.push(name, start)
	return func() time.Duration {
		d := time.Since(start)
		t.pop(id, d)
		return d
	}
}

func (t *tracer) push(name string, start time.Time) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNS: int64(start.Sub(t.t0))})
	t.open = append(t.open, id)
	return id
}

// pop closes the innermost open span, id, as having lasted d.
func (t *tracer) pop(id int, d time.Duration) {
	t.spans[id].EndNS = t.spans[id].StartNS + int64(d)
	t.open = t.open[:len(t.open)-1]
}

// add records an already-measured span of length d under the innermost
// open span: the replica's per-epoch aggregates, whose time is summed over
// a thousand cycles rather than contiguous.
func (t *tracer) add(name string, start time.Time, d time.Duration) {
	t.pop(t.push(name, start), d)
}

// spanTotals is one row of the per-name summary.
type spanTotals struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"` // total minus the time covered by child spans
}

func (t *tracer) totals() map[string]spanTotals {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]spanTotals{}
	for _, s := range t.spans {
		d := s.EndNS - s.StartNS
		r := out[s.Name]
		r.Count++
		r.TotalS += float64(d) / 1e9
		r.SelfS += float64(d-child[s.ID]) / 1e9
		out[s.Name] = r
	}
	return out
}

// traceFile is what a traced run leaves in benchmark/out/.
type traceFile struct {
	Header   header                `json:"header"`
	Metrics  map[string]float64    `json:"per_layer"`
	Extra    map[string]float64    `json:"workload_extra,omitempty"`
	Totals   map[string]spanTotals `json:"span_totals"`
	Spans    []span                `json:"spans"`
	Failures []string              `json:"failures,omitempty"`
}

func writeTraceFile(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Header.Workload+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
