package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rlnoc/internal/campaign"
)

// TestMain doubles the test binary as the daemon: when NOCSERVE_CHILD
// is set, it behaves exactly like `nocserve` with the given flags. The
// kill-restart test execs itself in that mode so it can SIGKILL a real
// process mid-campaign.
func TestMain(m *testing.M) {
	if os.Getenv("NOCSERVE_CHILD") == "1" {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "nocserve:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCaptured calls run with args on a fresh campaign directory and
// returns what it printed to os.Stdout (the reports write there directly).
func runCaptured(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	runErr := run(append([]string{"-dir", filepath.Join(t.TempDir(), "camp"), "-status-every", "0"}, args...))
	os.Stdout = stdout
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestRun drives each stock campaign at one worker and at the default
// pool (-workers 0 = GOMAXPROCS): both print the campaign's report, and
// the pool size never reaches it.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		want    []string // substrings of stdout
		wantErr string   // substring of the error; "" means success
	}{
		{name: "loadsweep", args: []string{"-small", "-campaign", "loadsweep", "-snapshot-every", "0"},
			want: []string{"load-latency sweep: mean E2E latency", "\n0.01 ", "(* = saturated"}},
		{name: "chaos", args: []string{"-small", "-campaign", "chaos", "-runs", "3", "-snapshot-every", "0"},
			want: []string{"chaos run  2  mesh  kills=3", "    qroute  drained", "chaos: 3 runs x 2 arms —"}},
		{name: "unknown campaign", args: []string{"-campaign", "sweep"},
			wantErr: `unknown campaign "sweep"`},
		// A campaign of no jobs used to report success having run nothing.
		{name: "chaos with no runs", args: []string{"-small", "-campaign", "chaos", "-runs", "0"},
			wantErr: "chaos needs at least one run, got 0"},
		// Out-of-range flags are refused, not run as a default or "off".
		{name: "negative workers", args: []string{"-workers", "-1"},
			wantErr: "-workers must be non-negative, got -1"},
		{name: "negative snapshot-every", args: []string{"-snapshot-every", "-1"},
			wantErr: "-snapshot-every must be non-negative, got -1"},
		{name: "negative watchdog", args: []string{"-watchdog", "-1s"},
			wantErr: "-watchdog must be non-negative, got -1s"},
		{name: "negative status-every", args: []string{"-status-every", "-1s"},
			wantErr: "-status-every must be non-negative, got -1s"},
		// An empty Dir would open a campaign in memory, which no restart
		// could resume.
		{name: "empty dir", args: []string{"-dir", ""},
			wantErr: "-dir must name the campaign directory"},
		// Resume-only mode over a directory that holds no campaign used to
		// report a complete campaign of no jobs.
		{name: "resume an empty directory", args: []string{"-small"},
			wantErr: "holds no campaign: pass -campaign chaos|loadsweep"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			one, err := runCaptured(t, append([]string{"-workers", "1"}, tc.args...)...)
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
				if !strings.Contains(one, s) {
					t.Errorf("output lacks %q:\n%s", s, one)
				}
			}
			auto, err := runCaptured(t, append([]string{"-workers", "0"}, tc.args...)...)
			if err != nil {
				t.Fatal(err)
			}
			if auto != one {
				t.Errorf("-workers 0 and -workers 1 print different reports:\n--- 1\n%s--- 0\n%s", one, auto)
			}
		})
	}
}

// TestSmallWithConfig: -config overlays its file on the preset -small
// chose; it used to reload the file over Default and run 8x8.
func TestSmallWithConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, []byte(`{"seed": 5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-campaign", "chaos", "-runs", "1", "-snapshot-every", "0"}
	want, err := runCaptured(t, append([]string{"-small", "-seed", "5"}, args...)...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runCaptured(t, append([]string{"-small", "-config", path}, args...)...)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("-small -config {seed 5} prints\n%s\nnot what -small -seed 5 prints:\n%s", got, want)
	}
}

// TestVerdict: a campaign fails on any wedged or dead job, and on nothing
// else.
func TestVerdict(t *testing.T) {
	ok := []campaign.JobResult{
		{ID: "a", Outcome: campaign.OutcomeDrained},
		{ID: "b", Outcome: campaign.OutcomeBudget},
		{ID: "c", Outcome: campaign.OutcomeWatchdog},
	}
	if err := verdict(ok); err != nil {
		t.Fatalf("clean campaign failed: %v", err)
	}
	if err := verdict(nil); err != nil {
		t.Fatalf("empty campaign failed: %v", err)
	}
	for _, bad := range []string{campaign.OutcomeWedged, campaign.OutcomeDead} {
		results := append(ok[:len(ok):len(ok)], campaign.JobResult{ID: "d", Outcome: bad})
		err := verdict(results)
		if err == nil || !strings.Contains(err.Error(), "1 of 4 jobs") || !strings.Contains(err.Error(), "1 "+bad) {
			t.Errorf("%s job: verdict %v, want an error counting it", bad, err)
		}
	}
}

// TestStatusServer: the status surface answers GET on its two routes with
// JSON, refuses every other method and path, and the listener drops slow
// clients instead of holding their connections open.
func TestStatusServer(t *testing.T) {
	eng, err := campaign.Open(campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	h := statusHandler(eng)
	for _, tc := range []struct {
		method, path string
		code         int
	}{
		{http.MethodGet, "/status", http.StatusOK},
		{http.MethodGet, "/results", http.StatusOK},
		{http.MethodHead, "/status", http.StatusOK},
		{http.MethodPost, "/status", http.StatusMethodNotAllowed},
		{http.MethodPut, "/results", http.StatusMethodNotAllowed},
		{http.MethodGet, "/jobs", http.StatusNotFound},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader("{}")))
		if rec.Code != tc.code {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, rec.Code, tc.code)
			continue
		}
		if tc.code != http.StatusOK || tc.method == http.MethodHead {
			continue
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q", tc.method, tc.path, ct)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Errorf("%s %s: body is not JSON: %q", tc.method, tc.path, rec.Body.String())
		}
	}

	srv := statusServer("127.0.0.1:0", eng)
	defer srv.Close()
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("listener timeouts header=%v read=%v write=%v idle=%v; every one must be set",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
}

// TestResumeOldDirectory: resume-only mode over a directory an older build
// wrote, whose journal holds lifecycle records but no job specs, fails
// rather than report a complete campaign of no jobs, and leaves the
// directory's results.json as it was.
func TestResumeOldDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	j, _, err := campaign.OpenJournal(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(
		campaign.Record{Type: campaign.RecStart, Job: "chaos-000-rl", Attempt: 1},
		campaign.Record{Type: campaign.RecDone, Job: "chaos-000-rl", Outcome: campaign.OutcomeDrained},
	); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	results := filepath.Join(dir, "results.json")
	want := []byte(`[{"id": "chaos-000-rl", "outcome": "drained"}]` + "\n")
	if err := os.WriteFile(results, want, 0o644); err != nil {
		t.Fatal(err)
	}

	err = run([]string{"-dir", dir, "-status-every", "0"})
	if err == nil || !strings.Contains(err.Error(), "predates journaled specs") {
		t.Errorf("resume-only over an older build's directory: err = %v", err)
	}
	if got, rerr := os.ReadFile(results); rerr != nil || string(got) != string(want) {
		t.Errorf("results.json now %q (%v), want it untouched: %q", got, rerr, want)
	}
}

func nocserveCmd(t *testing.T, dir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0],
		"-dir", dir, "-campaign", "chaos", "-runs", "2", "-small",
		"-workers", "2", "-snapshot-every", "300", "-status-every", "0")
	cmd.Env = append(os.Environ(), "NOCSERVE_CHILD=1")
	return cmd
}

func readResults(t *testing.T, dir string) map[string]campaign.JobResult {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var results []campaign.JobResult
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatal(err)
	}
	byID := map[string]campaign.JobResult{}
	for _, r := range results {
		byID[r.ID] = r
	}
	return byID
}

// TestKillRestartByteIdentical SIGKILLs a live nocserve mid-campaign —
// no warning, no cleanup — restarts it with the same flags, and
// requires every job to finish with Outcome, Detail, and Result
// byte-identical to a daemon that was never killed.
func TestKillRestartByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}

	// Reference: the same campaign, uninterrupted.
	refDir := filepath.Join(t.TempDir(), "ref")
	if out, err := nocserveCmd(t, refDir).CombinedOutput(); err != nil {
		t.Fatalf("reference campaign failed: %v\n%s", err, out)
	}
	ref := readResults(t, refDir)
	if len(ref) == 0 {
		t.Fatal("reference campaign produced no results")
	}

	// Victim: start, wait for the first on-disk checkpoint (proof a job
	// is mid-flight with recoverable state), SIGKILL.
	killDir := filepath.Join(t.TempDir(), "kill")
	victim := nocserveCmd(t, killDir)
	victim.Stderr = os.Stderr
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		snaps, _ := filepath.Glob(filepath.Join(killDir, "jobs", "*", "snapshot-*.rlns"))
		if len(snaps) > 0 {
			break
		}
		if time.Now().After(deadline) {
			victim.Process.Kill()
			victim.Wait()
			t.Fatal("no checkpoint appeared within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait() // expected to die on SIGKILL; exit status is irrelevant

	if _, err := os.Stat(filepath.Join(killDir, "results.json")); err == nil {
		t.Skip("campaign finished before the kill landed; nothing to recover")
	}

	// Restart with identical flags: journal replays, in-flight jobs
	// resume from their checkpoints, campaign must complete cleanly.
	if out, err := nocserveCmd(t, killDir).CombinedOutput(); err != nil {
		t.Fatalf("restarted campaign failed: %v\n%s", err, out)
	}

	got := readResults(t, killDir)
	if len(got) != len(ref) {
		t.Fatalf("recovered campaign has %d results, reference %d", len(got), len(ref))
	}
	for id, want := range ref {
		r, ok := got[id]
		if !ok {
			t.Errorf("job %s missing after restart", id)
			continue
		}
		// Attempts and Recovered legitimately differ across the kill;
		// everything the campaign measures must not.
		if r.Outcome != want.Outcome || r.Detail != want.Detail {
			t.Errorf("job %s: outcome %s (%s), reference %s (%s)",
				id, r.Outcome, r.Detail, want.Outcome, want.Detail)
		}
		gotJSON, _ := json.Marshal(r.Result)
		wantJSON, _ := json.Marshal(want.Result)
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("job %s: Result differs from uninterrupted daemon\n got: %s\nwant: %s",
				id, gotJSON, wantJSON)
		}
	}
}
