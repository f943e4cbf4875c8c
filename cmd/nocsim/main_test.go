package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rlnoc/internal/core"
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

// writeTemp writes body to a fresh file (a trace or a JSON config) and
// returns its path.
func writeTemp(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "input")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		want    []string // substrings of stdout
		wantErr string   // substring of the error; "" means success
	}{
		{name: "default benchmark", args: []string{"-small"},
			want: []string{"scheme            rl\n", "workload          canneal\n", "drained           true\n"}},
		{name: "pattern", args: []string{"-small", "-scheme", "crc", "-pattern", "transpose", "-v"},
			want: []string{"scheme            crc\n", "workload          transpose\n", "drained           true\n", "crc failures"}},
		{name: "trace", args: []string{"-small", "-scheme", "arq-ecc", "-trace", writeTemp(t, "0 0 5 4\n2500 15 1 4\n")},
			want: []string{"drained           true\n", "flits delivered   4\n"}}, // the first packet lands in warm-up
		{name: "unknown scheme", args: []string{"-small", "-scheme", "bogus"},
			wantErr: `unknown scheme "bogus"`},
		// A mistyped pattern used to run an empty trace and fail on the
		// warm-up; it must be refused by name.
		{name: "unknown pattern", args: []string{"-small", "-pattern", "nosuch"},
			wantErr: `unknown pattern "nosuch" (want uniform,`},
		// The RL-only Q-table files are gone; trained state travels as a
		// snapshot (-save-pretrained / -restore). Names split so a grep
		// for them lists live uses only.
		{name: "removed save-policy flag", args: []string{"-small", "-save" + "-policy", "q.bin"},
			wantErr: "flag provided but not defined"},
		{name: "removed load-policy flag", args: []string{"-small", "-load" + "-policy", "q.bin"},
			wantErr: "flag provided but not defined"},
		// The cycle loop steps every cycle; there is no jump to turn off.
		{name: "removed fast-forward flag", args: []string{"-small", "-fast" + "-forward=false"},
			wantErr: "flag provided but not defined"},
		// Step is sequential; there is no shard count to pick.
		{name: "removed step-workers flag", args: []string{"-small", "-step" + "-workers", "2"},
			wantErr: "flag provided but not defined"},
		// X-Y is the only dimension order and no key selects it; a
		// removed algorithm's name is refused, never run on XY tables.
		{name: "removed routing value", args: []string{"-small", "-config", writeTemp(t, `{"routing": "west`+`first"}`)},
			wantErr: `unknown field "routing"`},
		// The qroute scheme switches learned routing on, and its knobs
		// are constants: a file naming the section asks for a model this
		// build does not run.
		{name: "removed qroute section", args: []string{"-small", "-scheme", "qroute", "-config", writeTemp(t, `{"qroute": {"alpha": 0.5}}`)},
			wantErr: `unknown field "qroute"`},
		// Flags that repeated a config key are gone; the key in -config
		// is the one source of each setting.
		{name: "removed routing flag", args: []string{"-small", "-rout" + "ing", "yx"},
			wantErr: "flag provided but not defined"},
		{name: "removed error-rate flag", args: []string{"-small", "-error" + "-rate", "0"},
			wantErr: "flag provided but not defined"},
		{name: "removed qroute-alpha flag", args: []string{"-small", "-qroute" + "-alpha", "0.5"},
			wantErr: "flag provided but not defined"},
		{name: "removed qroute-epsilon flag", args: []string{"-small", "-qroute" + "-epsilon", "0"},
			wantErr: "flag provided but not defined"},
		// An event log is counted with awk on its second field; there is
		// no in-process analyzer.
		{name: "removed analyze flag", args: []string{"-ana" + "lyze", "run.elog"},
			wantErr: "flag provided but not defined"},
		// A trace naming a node outside the fabric used to index past the
		// injector's queues; it must be an error naming the event.
		{name: "trace source past the fabric", args: []string{"-small", "-scheme", "crc", "-trace", writeTemp(t, "0 0 1 4\n2 40 1 4\n")},
			wantErr: "event 1 endpoints (40,1) outside fabric"},
		{name: "trace source negative", args: []string{"-small", "-scheme", "crc", "-trace", writeTemp(t, "0 -1 1 4\n")},
			wantErr: "event 0 endpoints (-1,1) outside fabric"},
		{name: "trace destination past the fabric", args: []string{"-small", "-scheme", "crc", "-trace", writeTemp(t, "0 1 16 4\n")},
			wantErr: "event 0 endpoints (1,16) outside fabric"},
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

// TestSmallWithConfig: -config overlays its file on the preset -small
// chose; it used to reload the file over Default and run 8x8.
func TestSmallWithConfig(t *testing.T) {
	want, err := runCaptured(t, "-small", "-seed", "5")
	if err != nil {
		t.Fatal(err)
	}
	got, err := runCaptured(t, "-small", "-config", writeTemp(t, `{"seed": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("-small -config {seed 5} prints\n%s\nnot what -small -seed 5 prints:\n%s", got, want)
	}
}

// TestRestorePrintsTheUninterruptedResult: a run that checkpoints, and
// every one of its checkpoints resumed through -restore, print the result
// block of the run that wrote no checkpoint at all.
func TestRestorePrintsTheUninterruptedResult(t *testing.T) {
	args := []string{"-small", "-scheme", "rl", "-benchmark", "dedup", "-seed", "9"}
	want, err := runCaptured(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	got, err := runCaptured(t, append(args, "-snapshot-every", "7000", "-snapshot-dir", dir)...)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("checkpointing changed the result:\n--- plain\n%s--- with -snapshot-every\n%s", want, got)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.rlns"))
	if err != nil || len(snaps) < 2 {
		t.Fatalf("want at least two checkpoints in %s, got %v (%v)", dir, snaps, err)
	}
	for _, path := range snaps {
		got, err := runCaptured(t, "-restore", path)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("-restore %s:\n--- uninterrupted\n%s--- resumed\n%s", filepath.Base(path), want, got)
		}
	}
}

// TestRestorePretrainedPrintsTheUninterruptedResult: for every scheme, a
// run that saves its pre-trained state prints what a run that does not
// prints, and measuring from that file prints it again. The file carries
// config and scheme, so a flag restating either is an error naming it.
func TestRestorePretrainedPrintsTheUninterruptedResult(t *testing.T) {
	for _, scheme := range core.AllSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			args := []string{"-small", "-seed", "9", "-scheme", string(scheme), "-benchmark", "dedup"}
			want, err := runCaptured(t, args...)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "pretrained.rlns")
			saved, err := runCaptured(t, append(args, "-save-pretrained", path)...)
			if err != nil {
				t.Fatal(err)
			}
			if saved != want {
				t.Errorf("-save-pretrained changed the result:\n--- plain\n%s--- saving\n%s", want, saved)
			}
			got, err := runCaptured(t, "-restore", path, "-benchmark", "dedup")
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("-restore of the pre-trained state:\n--- uninterrupted\n%s--- restored\n%s", want, got)
			}
			if _, err := runCaptured(t, "-restore", path, "-seed", "3"); err == nil || !strings.Contains(err.Error(), "-seed") {
				t.Errorf("-restore with -seed: err = %v, want one naming -seed", err)
			}
		})
	}
}
