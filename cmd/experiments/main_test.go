package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rlnoc"
	"rlnoc/internal/campaign"
)

// runCaptured calls run with args and returns what it printed to
// os.Stdout (the printers write there directly).
func runCaptured(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	runErr := run(args)
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

func TestRun(t *testing.T) {
	cfgFile := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(cfgFile, []byte(`{"seed": 5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		args    []string
		want    []string // substrings of stdout
		wantErr string   // substring of the error; "" means success
	}{
		{name: "table2", args: []string{"-small", "-table2"},
			want: []string{"Table II: simulation parameters", "16 (4x4 2D mesh)"}},
		// -config overlays its file on the preset -small chose; it used
		// to reload the file over Default and print 64 routers.
		{name: "table2 small with config", args: []string{"-small", "-config", cfgFile, "-table2"},
			want: []string{"16 (4x4 2D mesh)"}},
		{name: "overhead", args: []string{"-overhead"},
			want: []string{"Section VI-B overhead analysis", "area overhead:"}},
		{name: "analytic", args: []string{"-analytic"},
			want: []string{"closed-form cost model", "crossover thresholds:", "DT mode bounds:       [0.01 0.08 0.17]"}},
		// -seeds 0 used to run one seed silently.
		{name: "no seeds", args: []string{"-small", "-fig", "6", "-seeds", "0"},
			wantErr: "-seeds must be at least 1, got 0"},
		// The cycle-loop harness is gone (go test -bench CycleLoop and
		// benchmark/ replace it); its flags must fail loudly, not be
		// ignored. The name is split so a grep for it lists live uses only.
		{name: "removed harness flag", args: []string{"-bench" + "-compare"},
			wantErr: "flag provided but not defined"},
		// Campaigns run through nocserve and restores through nocsim; the
		// second front doors are gone, loudly.
		{name: "removed chaos flag", args: []string{"-small", "-cha" + "os", "3"},
			wantErr: "flag provided but not defined"},
		{name: "removed loadsweep flag", args: []string{"-small", "-load" + "sweep"},
			wantErr: "flag provided but not defined"},
		{name: "removed snapshot-every flag", args: []string{"-snapshot" + "-every", "100"},
			wantErr: "flag provided but not defined"},
		{name: "removed snapshot-dir flag", args: []string{"-snapshot" + "-dir", "snaps"},
			wantErr: "flag provided but not defined"},
		{name: "removed restore flag", args: []string{"-re" + "store", "x.rlns"},
			wantErr: "flag provided but not defined"},
		// Step is sequential; there is no shard count to pick.
		{name: "removed step-workers flag", args: []string{"-small", "-step" + "-workers", "2", "-table2"},
			wantErr: "flag provided but not defined"},
		// Every override is validated, not only -topology: a negative pool
		// size fails as it does from a -config file.
		{name: "negative workers", args: []string{"-workers", "-1", "-table2"},
			wantErr: "suite workers must be non-negative"},
		{name: "unknown figure", args: []string{"-small", "-fig", "11"},
			wantErr: "unknown figure"},
		// The error lists every study, sorted, from the study table.
		{name: "unknown ablation", args: []string{"-small", "-ablation", "colour"},
			wantErr: `unknown ablation "colour" (want epoch|modes|rl-params|static-modes|table-sharing)`},
		// An ablation table is one seed; -seeds must not be silently ignored.
		{name: "ablation with seeds", args: []string{"-small", "-ablation", "modes", "-seeds", "2"},
			wantErr: "-seeds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := runCaptured(t, tc.args...)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range tc.want {
				if !strings.Contains(out, s) {
					t.Errorf("output lacks %q:\n%s", s, out)
				}
			}
		})
	}
}

// TestAblationRowsEqualRun: -ablation prints one table per benchmark, and
// each row is what Run gives for that arm alone, though the pool
// pre-trained each arm once and measured dedup on a fork.
func TestAblationRowsEqualRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ablation and each of its cells again")
	}
	benchmarks := []string{"canneal", "dedup"}
	out, err := runCaptured(t, "-small", "-ablation", "static-modes", "-benchmarks", strings.Join(benchmarks, ","))
	if err != nil {
		t.Fatal(err)
	}
	s := studies(rlnoc.SmallConfig())["static-modes"]
	var want []string
	for b, bench := range benchmarks {
		if b > 0 {
			want = append(want, "")
		}
		want = append(want, fmt.Sprintf(s.title, bench), tableHeader)
		for _, arm := range s.arms {
			res, err := rlnoc.Run(arm.Config, arm.Scheme, bench)
			if err != nil {
				t.Fatalf("%s on %s: %v", arm.Label, bench, err)
			}
			want = append(want, row(arm.Label, res))
		}
	}
	if got := strings.Join(want, "\n") + "\n"; out != got {
		t.Errorf("ablation output:\n%s\nwant (rows from Run):\n%s", out, got)
	}
}

// TestAblationArmsAreDistinct: an arm whose Result equals another arm's
// in the same study turns a knob that moves nothing the study measures,
// so it shows nothing. Every study runs at -small on canneal, and no two
// of its arms may return equal Results (the scheme name aside, which
// tells the static-mode arms apart by label alone).
func TestAblationArmsAreDistinct(t *testing.T) {
	all := studies(rlnoc.SmallConfig())
	for _, name := range studyNames() {
		s := all[name]
		results, err := rlnoc.RunArms(s.arms, []string{"canneal"}, "")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range s.arms {
			for j := i + 1; j < len(s.arms); j++ {
				a, b := results[i][0], results[j][0]
				a.Scheme, b.Scheme = "", ""
				if a == b {
					t.Errorf("%s: arms %q and %q return equal Results", name, s.arms[i].Label, s.arms[j].Label)
				}
			}
		}
	}
}

// TestRerunAtOtherWorkersSimulatesNothing: -workers is a host-local knob
// that changes no result, so a rerun over a finished -dir at another
// count is the same plan — it prints the same figure and starts no job.
func TestRerunAtOtherWorkersSimulatesNothing(t *testing.T) {
	dir := t.TempDir()
	starts := func() int {
		t.Helper()
		journal, recs, err := campaign.OpenJournal(filepath.Join(dir, "journal.log"))
		if err != nil {
			t.Fatal(err)
		}
		journal.Close()
		n := 0
		for _, rec := range recs {
			if rec.Type == campaign.RecStart {
				n++
			}
		}
		return n
	}
	args := []string{"-small", "-fig", "8", "-benchmarks", "canneal", "-dir", dir}
	first, err := runCaptured(t, append(args, "-workers", "2")...)
	if err != nil {
		t.Fatal(err)
	}
	ran := starts()
	again, err := runCaptured(t, append(args, "-workers", "1")...)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Errorf("the rerun printed\n%s\nwant\n%s", again, first)
	}
	if n := starts() - ran; n != 0 {
		t.Errorf("the rerun at another worker count started %d jobs, want none", n)
	}
}
