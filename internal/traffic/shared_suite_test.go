package traffic_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"testing"

	"rlnoc"
	"rlnoc/internal/topology"
	"rlnoc/internal/traffic"
)

func hashEvents(events []traffic.Event) [sha256.Size]byte {
	h := sha256.New()
	var buf [32]byte
	for _, e := range events {
		binary.LittleEndian.PutUint64(buf[0:], uint64(e.Cycle))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e.Src))
		binary.LittleEndian.PutUint64(buf[16:], uint64(e.Dst))
		binary.LittleEndian.PutUint64(buf[24:], uint64(e.Flits))
		h.Write(buf[:])
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestSuiteSharesTracesReadOnly drives the memo the way it is used: a
// full RunSuite (four schemes x two traces, in parallel) with the memo
// cold, then again warm. The suite must build each input once (two traces
// and the pre-training program), leave every shared slice byte-for-byte
// as synthesized, reuse them on the second run, and produce equal
// results both times.
func TestSuiteSharesTracesReadOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the suite twice")
	}
	traffic.ResetShared()
	defer traffic.ResetShared()

	cfg := rlnoc.SmallConfig()
	cfg.PretrainCycles = 6000
	cfg.WarmupCycles = 1000
	cfg.MaxCycles = 6000
	cfg.DrainCycles = 20000
	cfg.Seed = 1616
	benches := []string{"canneal", "swaptions"}

	cold, err := rlnoc.RunSuite(cfg, benches)
	if err != nil {
		t.Fatal(err)
	}
	if got := traffic.SharedEntries(); got != len(benches)+1 {
		t.Fatalf("cold suite left %d shared traces, want %d (one per benchmark and the pre-training program)", got, len(benches)+1)
	}

	// Look the suite's own entries up (same tuples core.RunBenchmark
	// uses) and fingerprint them.
	topo, err := topology.FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared := make(map[string][]traffic.Event)
	hashes := make(map[string][sha256.Size]byte)
	for _, name := range benches {
		b, err := traffic.BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := b.SharedTrace(topo, int64(cfg.MaxCycles), cfg.FlitsPerPacket, cfg.Seed*31+1300)
		if err != nil {
			t.Fatal(err)
		}
		if cap(ev) != len(ev) || len(ev) == 0 {
			t.Fatalf("%s: shared trace has len %d cap %d", name, len(ev), cap(ev))
		}
		fresh, err := rlnoc.BenchmarkTrace(cfg, name, int64(cfg.MaxCycles), cfg.Seed*31+1300)
		if err != nil {
			t.Fatal(err)
		}
		if hashEvents(ev) != hashEvents(fresh) {
			t.Fatalf("%s: the slice 4 sims just replayed no longer matches a fresh synthesis: something wrote through it", name)
		}
		if &fresh[0] == &ev[0] {
			t.Fatalf("%s: the public BenchmarkTrace handed out the shared slice; it must stay caller-owned", name)
		}
		shared[name], hashes[name] = ev, hashEvents(ev)
	}
	if got := traffic.SharedEntries(); got != len(benches)+1 {
		t.Fatalf("looking the suite's traces up added entries (%d): the keys differ from core.RunBenchmark's", got)
	}

	warm, err := rlnoc.RunSuite(cfg, benches)
	if err != nil {
		t.Fatal(err)
	}
	if got := traffic.SharedEntries(); got != len(benches)+1 {
		t.Fatalf("warm suite re-synthesized: %d shared traces", got)
	}
	for _, name := range benches {
		if hashEvents(shared[name]) != hashes[name] {
			t.Errorf("%s: shared trace changed during the warm suite", name)
		}
		for _, scheme := range rlnoc.Schemes() {
			a, _ := json.Marshal(cold.Results[name][scheme])
			b, _ := json.Marshal(warm.Results[name][scheme])
			if string(a) != string(b) {
				t.Errorf("%s/%s: result differs between a cold and a warm memo:\n cold %s\n warm %s", name, scheme, a, b)
			}
		}
	}
}
