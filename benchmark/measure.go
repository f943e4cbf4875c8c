package main

// The repetition loop and the end-to-end metrics.

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef declares one metric the benchmark emits. The same names, units
// and directions stand in BENCHMARK.json (the smoke test compares them).
type metricDef struct {
	name, unit, better string
}

// endToEnd is measured untraced, on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},                     // host wall time of one timed region
	{"sim_kcycles_per_s", "kcycles/s", "higher"}, // simulated cycles / wall_s
	{"cpu_s", "s", "lower"},                      // user+sys CPU of one timed region
	{"alloc_mb", "MB", "lower"},                  // bytes allocated by one timed region
	{"setup_s", "s", "lower"},                    // host wall time of one set-up
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// repSample is what one repetition measured.
type repSample struct {
	setupS, wallS, cpuS, allocMB float64
	traced                       bool
	out                          outcome
}

// rusage is the process's resource usage; zero where the call fails, which
// the smoke test's "never 0" check on cpu_s would show.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}

// oneRep runs set-up, collects garbage, and times the timed region. Set-up
// covers everything before the timed region, the collection included.
func oneRep(w workload, e *env, scratch string) (repSample, error) {
	var s repSample
	t0 := time.Now()
	dir, err := os.MkdirTemp(scratch, "rep-")
	if err != nil {
		return s, err
	}
	defer os.RemoveAll(dir)
	e.repDir = dir
	root := e.tr.begin("rep")
	defer root()
	end := e.tr.begin("setup")
	timed, err := w.setup(e)
	if err != nil {
		end()
		return s, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	runtime.GC()
	end()
	s.setupS = time.Since(t0).Seconds()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t1 := time.Now()
	end = e.tr.begin("timed")
	s.out = timed()
	end()
	s.wallS = time.Since(t1).Seconds()
	s.cpuS = cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	s.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	s.traced = e.tr != nil
	return s, nil
}

// repeat runs repetitions of w until budget has passed, and at least
// minReps of them. With a tracer, repetitions alternate untraced and
// traced so the two can be compared; the first, which pays for the cold
// process, is untraced, and the median of either kind discards it.
func repeat(w workload, e *env, scratch string, budget time.Duration, minReps int, tr *tracer) ([]repSample, error) {
	var reps []repSample
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		e.tr = nil
		if tr != nil && len(reps)%2 == 1 {
			e.tr = tr
		}
		s, err := oneRep(w, e, scratch)
		e.tr = nil
		if err != nil {
			return reps, err
		}
		reps = append(reps, s)
	}
	return reps, nil
}

// endToEndMetrics reduces the repetitions to the five end-to-end metrics.
// Each is the best repetition (the fastest for a time, the highest for the
// rate), not the median: the repetitions do identical work, and on a
// shared host interference only ever adds time, in stretches that can
// cover most of a run. Over 133 back-to-back repetitions of one workload
// the minimum of each block of ten ranged over 17 % where the median
// ranged over 50 %. A change that slows the timed region slows its fastest
// repetition as much as any other.
func endToEndMetrics(reps []repSample) map[string]float64 {
	best := func(f func(repSample) float64) float64 {
		v := f(reps[0])
		for _, r := range reps[1:] {
			v = min(v, f(r))
		}
		return v
	}
	wall := best(func(r repSample) float64 { return r.wallS })
	cycles := float64(reps[0].out.cycles) // the same in every repetition
	return map[string]float64{
		"wall_s":            wall,
		"sim_kcycles_per_s": cycles / 1e3 / wall,
		"cpu_s":             best(func(r repSample) float64 { return r.cpuS }),
		"alloc_mb":          best(func(r repSample) float64 { return r.allocMB }),
		"setup_s":           best(func(r repSample) float64 { return r.setupS }),
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
