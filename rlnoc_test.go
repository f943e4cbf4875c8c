package rlnoc

import (
	"strings"
	"testing"
)

// fastConfig keeps root-level integration tests quick.
func fastConfig() Config {
	cfg := SmallConfig()
	cfg.PretrainCycles = 6000
	cfg.WarmupCycles = 1000
	cfg.MaxCycles = 6000
	cfg.DrainCycles = 20000
	return cfg
}

func TestPublicRun(t *testing.T) {
	res, err := Run(fastConfig(), CRC, "swaptions")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained || res.FlitsDelivered == 0 {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 9 {
		t.Fatalf("have %d benchmarks", len(names))
	}
	for _, n := range names {
		if n == "" {
			t.Fatal("empty name")
		}
	}
}

func TestParseSchemeRoundTrip(t *testing.T) {
	for _, s := range Schemes() {
		got, err := ParseScheme(string(s))
		if err != nil || got != s {
			t.Fatalf("ParseScheme(%s): %v %v", s, got, err)
		}
	}
}

func TestSyntheticTraceAndRunTrace(t *testing.T) {
	cfg := fastConfig()
	events, err := SyntheticTrace(cfg, "transpose", 0.003, 4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	res, err := RunTrace(cfg, ARQ, events, "transpose")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained {
		t.Fatal("did not drain")
	}
}

func TestRunStaticModeBounds(t *testing.T) {
	cfg := fastConfig()
	events, err := SyntheticTrace(cfg, "uniform", 0.002, 3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunStaticMode(cfg, -1, events, "x"); err == nil {
		t.Error("negative mode accepted")
	}
	if _, err := RunStaticMode(cfg, 4, events, "x"); err == nil {
		t.Error("mode 4 accepted")
	}
	res, err := RunStaticMode(cfg, 3, events, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained {
		t.Fatal("static mode 3 did not drain")
	}
}

func TestSessionObserver(t *testing.T) {
	cfg := fastConfig()
	sess, err := NewSession(cfg, RL)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Pretrain(); err != nil {
		t.Fatal(err)
	}
	events, err := BenchmarkTrace(cfg, "dedup", int64(cfg.MaxCycles), 7)
	if err != nil {
		t.Fatal(err)
	}
	var snaps int
	sess.Observe(1000, func(s Snapshot) {
		snaps++
		total := 0
		for _, c := range s.ModeCounts {
			total += c
		}
		if total != cfg.Routers() {
			t.Errorf("mode counts sum %d, want %d", total, cfg.Routers())
		}
	})
	if _, err := sess.Measure(events, "dedup"); err != nil {
		t.Fatal(err)
	}
	if snaps == 0 {
		t.Fatal("observer never fired")
	}
}

// TestSessionFork pre-trains one session and measures two traces on forks
// of it: each must give what RunTrace gives pre-training for itself, and
// forking must leave the session it forks undisturbed.
func TestSessionFork(t *testing.T) {
	cfg := fastConfig()
	sess, err := NewSession(cfg, RL)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Pretrain(); err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"dedup", "canneal"} {
		events, err := BenchmarkTrace(cfg, bench, int64(cfg.MaxCycles), 7)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunTrace(cfg, RL, events, bench)
		if err != nil {
			t.Fatal(err)
		}
		run := sess
		if bench == "dedup" {
			// The last trace runs on the forked-from session itself.
			if run, err = sess.Fork(); err != nil {
				t.Fatal(err)
			}
		}
		got, err := run.Measure(events, bench)
		if err != nil {
			t.Fatal(err)
		}
		if serialize(t, got) != serialize(t, want) {
			t.Errorf("%s: measured on a fork = %v:\n got %s\nwant %s", bench, run != sess, serialize(t, got), serialize(t, want))
		}
	}
}

func TestSuiteAndFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run is slow")
	}
	cfg := fastConfig()
	suite, err := RunSuite(cfg, []string{"swaptions", "canneal"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range FigureIDs() {
		f, err := suite.Figure(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		// CRC is the normalization baseline: always 1 (Fig. 7 speed-up of
		// CRC over itself is also 1).
		for _, bench := range f.Benchmarks {
			if v := f.Rows[bench][CRC]; v < 0.999 || v > 1.001 {
				t.Errorf("%s/%s: CRC = %g, want 1.0", id, bench, v)
			}
			for _, sc := range Schemes() {
				if f.Rows[bench][sc] < 0 {
					t.Errorf("%s/%s/%s negative", id, bench, sc)
				}
			}
		}
		out := f.Format()
		if !strings.Contains(out, "mean") || !strings.Contains(out, "canneal") {
			t.Errorf("%s: Format missing rows:\n%s", id, out)
		}
	}
	if _, err := suite.Figure("fig99"); err == nil {
		t.Error("unknown figure accepted")
	}
}

// TestTableIIRouting: the routing row names the table's one dimension
// order, Table II's X-Y.
func TestTableIIRouting(t *testing.T) {
	want := "routing             xy dimension-ordered\n"
	if out := TableII(DefaultConfig()); !strings.Contains(out, want) {
		t.Errorf("Table II lacks %q:\n%s", want, out)
	}
}

func TestTableIIAndOverheadReports(t *testing.T) {
	out := TableII(DefaultConfig())
	for _, want := range []string{"8x8", "128 bits/flit", "2.0 GHz", "4 VCs/port",
		"alpha max(0.02, 1/(1+n/4))", "epsilon 0.20 pre-train / 0.02 measured"} {
		if !strings.Contains(out, want) {
			t.Errorf("TableII missing %q:\n%s", want, out)
		}
	}
	over := OverheadReport()
	for _, want := range []string{"2360", "5.5%", "4.8%", "4.5%", "0.16 pJ", "150 ns"} {
		if !strings.Contains(over, want) {
			t.Errorf("OverheadReport missing %q:\n%s", want, over)
		}
	}
}
