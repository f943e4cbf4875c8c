// Command benchmark is the repository's performance benchmark: five
// end-to-end workloads timed from outside the simulator, and a separate
// traced run that attributes the time to layers. README.md has the
// workloads, the metrics and what each layer metric is expected to move.
//
//	bash benchmark/run.sh --workload parsec_rl --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -seed 1              # every workload, untraced
//	bash benchmark/run.sh -seed 1 -trace 1     # every workload, traced
//	bash benchmark/run.sh -only suite_fig      # one workload
//	bash benchmark/run.sh -selfcheck           # two untraced sets, compared
//	bash benchmark/run.sh -update-expected     # re-pin the result digests
//
// With --workload the last line of standard output is one JSON object:
// correct, attempted, failed and the metrics (end-to-end untraced,
// per-layer traced).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"rlnoc/internal/config"
)

const (
	defaultSeconds = 10 // BENCHMARK.json's run_seconds
	outDir         = "benchmark/out"
	scratchDir     = ".bench_build/scratch"
)

// options is one workload run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	scratch  string // scratch root; a per-run directory is made and removed under it
	outDir   string // where a traced run writes its span file
	pins     pins   // pinned digests to compare against
	update   bool   // re-pin instead of comparing
}

// header records what a reader needs to trust a number.
type header struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
	Traced     bool   `json:"traced"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

// result is everything one workload run produced.
type result struct {
	header    header
	report    report
	reps      int
	digest    string
	pinned    string // "" when this scale/workload/seed has no pin
	extra     map[string]float64
	failures  []string
	tracePath string
}

// gitHead is the commit of the checkout the benchmark runs in, or
// "unknown" where that is not a git repository (git may not look for one
// above the working directory).
func gitHead() string {
	cwd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runWorkload runs one workload for o.seconds and reduces it to a report.
func runWorkload(o options) (res result, err error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return res, fmt.Errorf("unknown workload %q", o.workload)
	}
	sz, ok := scales[o.scale]
	if !ok {
		return res, fmt.Errorf("unknown scale %q (want full|tiny)", o.scale)
	}
	// The simulator reads these as defaults, and the collector's pacing
	// alone moves chaos_campaign by 18 % (README, finding h); a stray shell
	// variable must not change what is measured.
	os.Unsetenv(config.EnvStepWorkers)
	os.Unsetenv(config.EnvChecks)
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)

	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return res, err
	}
	scratch, err := os.MkdirTemp(o.scratch, "run-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(scratch)

	res.header = header{
		Workload: w.name, Seed: o.seed, Scale: o.scale, Traced: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, Commit: gitHead(),
	}
	e := &env{seed: o.seed, sz: sz, workers: min(2, runtime.NumCPU())}
	budget := time.Duration(o.seconds * float64(time.Second))

	var values map[string]float64
	var reps []repSample
	var tr *tracer
	if !o.trace {
		if reps, err = repeat(w, e, scratch, budget, sz.minReps, nil); err != nil {
			return res, err
		}
		values = endToEndMetrics(reps)
	} else {
		tr = newTracer(w.name)
		// Half the time goes to the workload's own repetitions, alternately
		// traced and untraced; the battery's work is fixed.
		if reps, err = repeat(w, e, scratch, budget/2, max(2, sz.minReps+1), tr); err != nil {
			return res, err
		}
		e.tr = tr
		if values, err = runBattery(w, e, scratch); err != nil {
			return res, err
		}
		e.tr = nil
		var on, off []float64
		for _, r := range reps {
			if r.traced {
				on = append(on, r.wallS)
			} else {
				off = append(off, r.wallS)
			}
		}
		values["trace.overhead_ratio"] = quantile(on, 0.5) / quantile(off, 0.5)
	}
	res.reps = len(reps)

	// Checks: every operation of every repetition, determinism across
	// repetitions, and the pinned digest where one exists.
	for i, r := range reps {
		res.report.Attempted += r.out.attempted
		res.failures = append(res.failures, r.out.failures...)
		d, err := digestOf(r.out.results)
		if err != nil {
			return res, err
		}
		if i == 0 {
			res.digest = d
		} else if d != res.digest {
			res.failures = append(res.failures, fmt.Sprintf("repetition %d produced different results from repetition 0", i))
		}
	}
	res.extra = reps[len(reps)-1].out.extra
	if o.trace {
		// Simulated, so zero where the workload runs no four-scheme suite.
		values["stats.paper_rel_err"] = res.extra["paper_rel_err"]
		values["stats.paper_rel_err_heldback"] = res.extra["paper_rel_err_heldback"]
	}
	key := pinKey(o.scale, w.name, o.seed)
	switch {
	case o.update:
		if len(res.failures) == 0 {
			if err := updatePin(key, res.digest); err != nil {
				return res, err
			}
			res.pinned = res.digest
		}
	case o.pins.GOARCH == runtime.GOARCH:
		// Floating-point results are pinned per architecture (fused
		// multiply-add changes low bits); elsewhere only invariants hold.
		if res.pinned = o.pins.Digests[key]; res.pinned != "" && res.pinned != res.digest {
			res.failures = append(res.failures, fmt.Sprintf("result digest %s differs from pinned %s", res.digest, res.pinned))
		}
	}
	res.report.Failed = min(len(res.failures), res.report.Attempted)
	res.report.Correct = len(res.failures) == 0

	defs := metricDefs(o.trace)
	res.report.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.report.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if o.trace {
		res.tracePath, err = writeTraceFile(o.outDir, traceFile{
			Header: res.header, Metrics: values, Extra: res.extra,
			Totals: tr.totals(), Spans: tr.spans, Failures: res.failures,
		})
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// metricDefs is what a run reports: end-to-end untraced, per-layer traced.
func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// print writes the human-readable account, then the report as the last line.
func (r result) print(w io.Writer) error {
	h := r.header
	fmt.Fprintf(w, "# workload=%s seed=%d scale=%s traced=%v reps=%d\n", h.Workload, h.Seed, h.Scale, h.Traced, r.reps)
	fmt.Fprintf(w, "# nproc=%d GOMAXPROCS=%d %s %s commit=%s\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOARCH, h.Commit)
	for _, d := range metricDefs(h.Traced) {
		fmt.Fprintf(w, "%-36s %16.6g %-10s (%s is better)\n", d.name, r.report.Metrics[d.name].Value, d.unit, d.better)
	}
	for _, k := range sortedKeys(r.extra) {
		fmt.Fprintf(w, "  %s/%s = %.6g\n", h.Workload, k, r.extra[k])
	}
	pin := "no pin for this seed: invariants only"
	if r.pinned != "" {
		pin = "pinned " + r.pinned[:12]
	}
	fmt.Fprintf(w, "fail_ratio = %d/%d   digest %s (%s)\n", r.report.Failed, r.report.Attempted, r.digest[:12], pin)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	if r.tracePath != "" {
		fmt.Fprintf(w, "spans written to %s\n", r.tracePath)
	}
	line, err := json.Marshal(r.report)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runChild re-executes this program for one workload, so neither garbage
// nor the process-wide topology memo leaks between workloads, and returns
// the report from the last line of its output.
func runChild(o options, echo io.Writer) (report, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	traceArg := "0"
	if o.trace {
		traceArg = "1"
	}
	args := []string{"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", traceArg, "-scale", o.scale}
	if o.update {
		args = append(args, "-update-expected")
	}
	var buf bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = io.MultiWriter(&buf, echo)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return rep, errors.Join(runErr, fmt.Errorf("%s: no report on the last line: %w", o.workload, err))
	}
	return rep, nil
}

// runSet runs the named workloads one after another, each in its own child.
func runSet(o options, names []string, echo io.Writer) (map[string]report, error) {
	out := map[string]report{}
	for _, name := range names {
		o.workload = name
		rep, err := runChild(o, echo)
		if err != nil {
			return out, err
		}
		out[name] = rep
	}
	return out, nil
}

// printSummary prints workload x metric and returns how many workloads
// were not correct (a failed operation or a drifted digest).
func printSummary(w io.Writer, names []string, defs []metricDef, set map[string]report) (incorrect int) {
	fmt.Fprintf(w, "\n%-34s", "metric")
	for _, n := range names {
		fmt.Fprintf(w, " %15s", n)
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s", d.name+" ["+d.unit+"]")
		for _, n := range names {
			fmt.Fprintf(w, " %15.6g", set[n].Metrics[d.name].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-34s", "fail_ratio [failed/attempted]")
	for _, n := range names {
		r := set[n]
		fmt.Fprintf(w, " %15s", fmt.Sprintf("%d/%d", r.Failed, r.Attempted))
		if !r.Correct {
			incorrect++
		}
	}
	fmt.Fprintln(w)
	return incorrect
}

// benchmarkJSON is the part of BENCHMARK.json the self-check reads.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfcheck runs the untraced set twice back to back and compares every
// end-to-end metric of every workload against its bound.
func selfcheck(o options, names []string, w io.Writer) (int, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return 0, err
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		return 0, err
	}
	var sets [2]map[string]report
	for i := range sets {
		if sets[i], err = runSet(o, names, io.Discard); err != nil {
			return 0, err
		}
	}
	fmt.Fprintf(w, "# selfcheck seed=%d scale=%s seconds=%g nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		o.seed, o.scale, o.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitHead())
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "gap", "bound")
	over := 0
	for _, n := range names {
		for _, m := range bj.EndToEnd {
			a, b := sets[0][n].Metrics[m.Name].Value, sets[1][n].Metrics[m.Name].Value
			gap := (b - a) / a // how much worse the second set reads
			if m.Better == "higher" {
				gap = (a - b) / a
			}
			mark := ""
			if gap > m.Bound || -gap > m.Bound {
				over++
				mark = "  OVER"
			}
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %+7.2f%% %6.0f%%%s\n", n, m.Name, a, b, 100*gap, 100*m.Bound, mark)
		}
		for i, s := range sets {
			if !s[n].Correct {
				over++
				fmt.Fprintf(w, "%-16s set %d: %d of %d operations failed\n", n, i+1, s[n].Failed, s[n].Attempted)
			}
		}
	}
	return over, nil
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{seed: 1}
	var traceFlag int
	var only string
	var doSelfcheck bool
	fs.StringVar(&o.workload, "workload", "", "run this one workload and end with the JSON report")
	fs.Func("seed", "seed of every generated input (default 1)", func(v string) error {
		// Any 64-bit number is a seed, signed or not.
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			var u uint64
			u, err = strconv.ParseUint(v, 10, 64)
			n = int64(u)
		}
		o.seed = n
		return err
	})
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long one workload measures")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&o.scale, "scale", "full", "full, or tiny for the smoke test")
	fs.StringVar(&only, "only", "", "comma-separated workloads to run when -workload is not given")
	fs.BoolVar(&doSelfcheck, "selfcheck", false, "run the untraced set twice and compare against the bounds")
	fs.BoolVar(&o.update, "update-expected", false, "re-pin benchmark/expected.json at seeds 1 and 2")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag != 0
	o.scratch, o.outDir = scratchDir, outDir
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var err error
	if o.pins, err = loadPins(); err != nil {
		return fail(err)
	}

	if o.workload != "" {
		res, err := runWorkload(o)
		if err != nil {
			return fail(err)
		}
		if err := res.print(stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	var names []string
	for _, w := range workloads {
		if only == "" || strings.Contains(","+only+",", ","+w.name+",") {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		return fail(fmt.Errorf("-only %q names no workload", only))
	}
	switch {
	case o.update:
		// Pins are results, not timings: the shortest run will do.
		o.seconds, o.trace = 0, false
		for _, scale := range []string{"full", "tiny"} {
			for _, seed := range pinnedSeeds {
				o.scale, o.seed = scale, seed
				if _, err := runSet(o, names, io.Discard); err != nil {
					return fail(err)
				}
				fmt.Fprintf(stdout, "pinned %s seed %d\n", scale, seed)
			}
		}
		return 0
	case doSelfcheck:
		over, err := selfcheck(o, names, stdout)
		if err != nil {
			return fail(err)
		}
		if over > 0 {
			fmt.Fprintf(stdout, "selfcheck: %d comparisons outside their bounds\n", over)
			return 1
		}
		fmt.Fprintln(stdout, "selfcheck: every metric within its bound")
		return 0
	}
	set, err := runSet(o, names, stdout)
	if err != nil {
		return fail(err)
	}
	if bad := printSummary(stdout, names, metricDefs(o.trace), set); bad > 0 {
		fmt.Fprintf(stdout, "%d of %d workloads had failed operations or drifted from their pinned digests\n", bad, len(names))
		return 1
	}
	fmt.Fprintln(stdout, "fail_ratio = 0 and sim_digest_drift = 0 on every workload")
	return 0
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
