package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	generated := filepath.Join(t.TempDir(), "canneal.trace")
	for _, tc := range []struct {
		name      string
		args      []string
		want      []string // substrings of stdout
		wantFirst string   // first line of stdout ("" = unchecked)
		wantLast  string   // last line of stdout
		wantLines int      // line count of stdout (0 = unchecked)
		wantErr   string   // substring of the error; "" means success
	}{
		{name: "list", args: []string{"-list"},
			wantFirst: "benchmark        rate/kcyc     duty    local  hotspot    short",
			want:      []string{"canneal               11.0     0.62     0.10     0.20     0.30\n", "synthetic patterns:\n", "  transpose\n"},
			wantLast:  "  tornado"},
		// Golden: the default-seed canneal trace is what every -benchmark
		// user replays; its header, first and last event and event count
		// move only if the generator does.
		{name: "benchmark", args: []string{"-benchmark", "canneal", "-cycles", "2000"},
			wantFirst: "# rlnoc trace v1: cycle src dst flits",
			want:      []string{"\n9 46 49 4\n"},
			wantLast:  "1989 1 51 4", wantLines: 848},
		{name: "pattern", args: []string{"-pattern", "transpose", "-cycles", "2000"},
			wantFirst: "# rlnoc trace v1: cycle src dst flits",
			want:      []string{"\n6 1 8 4\n"},
			wantLast:  "1999 50 22 4", wantLines: 563},
		// Round trip: -out writes the same trace to a file, -inspect reads
		// it back and validates it against the fabric.
		{name: "benchmark to file", args: []string{"-benchmark", "canneal", "-cycles", "2000", "-out", generated}},
		{name: "inspect the generated file", args: []string{"-inspect", generated},
			wantFirst: "events         847",
			want:      []string{"flits          2572\n", "span           1990 cycles\n"},
			wantLast:  "offered load   0.02019 flits/node/cycle", wantLines: 4},
		{name: "inspect against a smaller fabric", args: []string{"-inspect", generated, "-width", "4", "-height", "4"},
			wantErr: "invalid trace: traffic: event 0 endpoints (46,49) outside fabric"},
		{name: "unknown topology", args: []string{"-topology", "ring", "-list"},
			wantErr: `unknown topology "ring" (want mesh|torus)`},
		{name: "unknown benchmark", args: []string{"-benchmark", "nope"},
			wantErr: `unknown benchmark "nope"`},
		{name: "unknown pattern", args: []string{"-pattern", "nosuch"},
			wantErr: `unknown pattern "nosuch"`},
		{name: "unknown flag", args: []string{"-bogus"},
			wantErr: "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout bytes.Buffer
			err := run(tc.args, &stdout)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			out := stdout.String()
			lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
			if tc.wantFirst != "" && lines[0] != tc.wantFirst {
				t.Errorf("first line %q, want %q", lines[0], tc.wantFirst)
			}
			if tc.wantLast != "" && lines[len(lines)-1] != tc.wantLast {
				t.Errorf("last line %q, want %q", lines[len(lines)-1], tc.wantLast)
			}
			if tc.wantLines != 0 && len(lines) != tc.wantLines {
				t.Errorf("%d lines of output, want %d", len(lines), tc.wantLines)
			}
			for _, s := range tc.want {
				if !strings.Contains(out, s) {
					t.Errorf("output lacks %q:\n%s", s, out)
				}
			}
		})
	}
}
