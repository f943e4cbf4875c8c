package traffic

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func eventsOf(n int, tag int64) []Event {
	ev := make([]Event, n, n+8) // spare capacity the memo must clip
	for i := range ev {
		ev[i] = Event{Cycle: tag, Src: i, Dst: i + 1, Flits: 1}
	}
	return ev
}

func (c *memo) has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key] != nil
}

// TestMemoHandsOutClippedSharedSlices: every caller of a key gets the
// same backing array, with cap == len so an append cannot reach it.
func TestMemoHandsOutClippedSharedSlices(t *testing.T) {
	c := newMemo(1 << 20)
	builds := 0
	build := func() ([]Event, error) { builds++; return eventsOf(100, 7), nil }
	a, err := c.get("k", build)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := c.get("k", build)
	if builds != 1 || &a[0] != &b[0] {
		t.Fatalf("second lookup rebuilt or copied (builds=%d)", builds)
	}
	if cap(a) != len(a) {
		t.Fatalf("shared slice has cap %d > len %d: an append would write into shared memory", cap(a), len(a))
	}
	grown := append(a, Event{Cycle: 99})
	grown[0].Cycle = -1
	if b[0].Cycle != 7 {
		t.Fatal("append to a shared slice reached the memo's copy")
	}
}

// TestMemoByteCap: the cap is honoured by evicting the least recently
// used traces; a trace larger than the whole cap is served and not kept;
// the accounting matches what is held.
func TestMemoByteCap(t *testing.T) {
	const n = 1000
	one := int64(n)*eventBytes + 2 // two-byte keys below
	c := newMemo(3*one + one/2)    // room for three
	get := func(key string) {
		t.Helper()
		ev, err := c.get(key, func() ([]Event, error) { return eventsOf(n, 1), nil })
		if err != nil || len(ev) != n {
			t.Fatalf("get %s: %d events, err %v", key, len(ev), err)
		}
	}
	get("k1")
	get("k2")
	get("k3")
	get("k1") // k2 is now the oldest
	get("k4")
	if c.has("k2") || !c.has("k1") || !c.has("k3") || !c.has("k4") {
		t.Fatalf("eviction did not take the least recently used entry: k1=%v k2=%v k3=%v k4=%v",
			c.has("k1"), c.has("k2"), c.has("k3"), c.has("k4"))
	}
	if c.bytes != 3*one || c.bytes > c.capBytes {
		t.Fatalf("memo holds %d bytes, want %d (cap %d)", c.bytes, 3*one, c.capBytes)
	}

	big, err := c.get("kB", func() ([]Event, error) { return eventsOf(4*n, 2), nil })
	if err != nil || len(big) != 4*n {
		t.Fatalf("oversize trace not served: %d events, err %v", len(big), err)
	}
	if c.has("kB") || c.bytes != 3*one || len(c.entries) != 3 {
		t.Fatalf("oversize trace was retained or evicted its neighbours (bytes %d, entries %d)", c.bytes, len(c.entries))
	}
}

// TestMemoDoesNotRetainFailures: an error reaches the caller and the next
// lookup builds again; a build that panics leaves no poisoned entry.
func TestMemoDoesNotRetainFailures(t *testing.T) {
	c := newMemo(1 << 20)
	boom := errors.New("boom")
	if _, err := c.get("k", func() ([]Event, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.has("k") {
		t.Fatal("failed build retained")
	}
	func() {
		defer func() { _ = recover() }()
		_, _ = c.get("k", func() ([]Event, error) { panic("generator bug") })
	}()
	if c.has("k") {
		t.Fatal("panicked build retained")
	}
	ev, err := c.get("k", func() ([]Event, error) { return eventsOf(3, 1), nil })
	if err != nil || len(ev) != 3 {
		t.Fatalf("lookup after failures: %d events, err %v", len(ev), err)
	}
}

// TestMemoSingleFlight: concurrent callers of one key synthesize once and
// all receive the one slice; distinct keys build independently. Run under
// -race in CI.
func TestMemoSingleFlight(t *testing.T) {
	c := newMemo(1 << 24)
	const callers, keys = 16, 4
	var builds [keys]atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	got := make([][]Event, callers*keys)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := i % keys
			ev, err := c.get(fmt.Sprint("key", k), func() ([]Event, error) {
				builds[k].Add(1)
				<-release // hold the build open while the other callers pile up
				return eventsOf(500, int64(k)), nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = ev
		}(i)
	}
	close(release)
	wg.Wait()
	for k := range builds {
		if n := builds[k].Load(); n != 1 {
			t.Errorf("key %d synthesized %d times, want once", k, n)
		}
	}
	for i, ev := range got {
		if len(ev) != 500 || ev[0].Cycle != int64(i%keys) || &ev[0] != &got[i%keys][0] {
			t.Fatalf("caller %d did not receive its key's shared slice", i)
		}
	}
}

// TestSharedGeneratorsMatchUnshared: the memoized entry points return
// what the caller-owned ones generate, key on everything that reaches the
// events, and validate before they touch the memo.
func TestSharedGeneratorsMatchUnshared(t *testing.T) {
	ResetShared()
	defer ResetShared()
	fabrics := referenceFabrics(t)
	mesh, torus := fabrics[0], fabrics[1]
	canneal, _ := BenchmarkByName("canneal")
	x264, _ := BenchmarkByName("x264")

	want, _ := canneal.Trace(mesh, 3000, 4, 5)
	got, err := canneal.SharedTrace(mesh, 3000, 4, 5)
	if err != nil || !sameEvents(got, want) {
		t.Fatalf("SharedTrace differs from Trace (err %v)", err)
	}
	again, _ := canneal.SharedTrace(mesh, 3000, 4, 5)
	if &again[0] != &got[0] {
		t.Fatal("SharedTrace did not share")
	}
	for name, other := range map[string]func() ([]Event, error){
		"benchmark": func() ([]Event, error) { return x264.SharedTrace(mesh, 3000, 4, 5) },
		"fabric":    func() ([]Event, error) { return canneal.SharedTrace(torus, 3000, 4, 5) },
		"cycles":    func() ([]Event, error) { return canneal.SharedTrace(mesh, 3001, 4, 5) },
		"flits":     func() ([]Event, error) { return canneal.SharedTrace(mesh, 3000, 5, 5) },
		"seed":      func() ([]Event, error) { return canneal.SharedTrace(mesh, 3000, 4, 6) },
	} {
		ev, err := other()
		if err != nil || len(ev) == 0 || &ev[0] == &got[0] {
			t.Errorf("a different %s was served the same entry (err %v)", name, err)
		}
	}

	segs := []Segment{{Uniform, 0.01}, {Hotspot, 0.02}}
	wantP := program(mesh, segs, 4, 2000, 9)
	gotP, err := SharedProgram(mesh, segs, 4, 2000, 9)
	if err != nil || !sameEvents(gotP, wantP) {
		t.Fatalf("SharedProgram differs from program (err %v)", err)
	}
	for name, other := range map[string][]Segment{
		"rate":    {{Uniform, 0.011}, {Hotspot, 0.02}},
		"pattern": {{Uniform, 0.01}, {Tornado, 0.02}},
		"order":   {{Hotspot, 0.02}, {Uniform, 0.01}},
		"count":   {{Uniform, 0.01}},
	} {
		ev, err := SharedProgram(mesh, other, 4, 2000, 9)
		if err != nil || len(ev) == 0 || &ev[0] == &gotP[0] {
			t.Errorf("a program with a different %s was served the same entry (err %v)", name, err)
		}
	}

	entries := SharedEntries()
	for _, bad := range []func() ([]Event, error){
		func() ([]Event, error) { return SharedProgram(mesh, nil, 4, 100, 1) },
		func() ([]Event, error) { return SharedProgram(mesh, []Segment{{Uniform, 1.5}}, 4, 100, 1) },
		func() ([]Event, error) { return SharedProgram(mesh, segs, 0, 100, 1) },
		func() ([]Event, error) { return SharedProgram(mesh, segs, 4, -1, 1) },
		func() ([]Event, error) { return canneal.SharedTrace(mesh, -1, 4, 1) },
		func() ([]Event, error) { return canneal.SharedTrace(mesh, 100, 0, 1) },
	} {
		if _, err := bad(); err == nil {
			t.Error("invalid input accepted")
		}
	}
	if SharedEntries() != entries {
		t.Error("invalid input left an entry behind")
	}
}
