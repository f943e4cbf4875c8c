package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"rlnoc/internal/config"
	"rlnoc/internal/network"
	"rlnoc/internal/snap"
	"rlnoc/internal/traffic"
)

// eachPending calls f on every event the injector has not yet issued:
// source by source, each source's in trace order, cycles relative to the
// phase base.
func (in *injector) eachPending(f func(traffic.Event)) {
	for src, st := range in.streams {
		cycle := in.at[src]
		for len(st) > 0 {
			var w [3]uint64 // delta, dst, flits
			for i := range w {
				v, n := binary.Uvarint(st)
				if n <= 0 {
					panic("core: a malformed injector stream")
				}
				w[i], st = v, st[n:]
			}
			cycle += int64(w[0])
			f(traffic.Event{Cycle: cycle, Src: src, Dst: int(w[1]), Flits: int(w[2])})
		}
	}
}

// pendingEvents lists the events in has yet to issue (eachPending's order).
func pendingEvents(in *injector) []traffic.Event {
	var out []traffic.Event
	in.eachPending(func(e traffic.Event) { out = append(out, e) })
	return out
}

// fuzzTrace reads a valid trace on a fabric of nodes from data, four bytes
// an event: the cycle gap (shifted far up when its byte is 250 or more, so
// deltas take several varint bytes), source, destination and flit count.
func fuzzTrace(data []byte, nodes int) []traffic.Event {
	var events []traffic.Event
	var cycle int64
	for ; len(data) >= 4; data = data[4:] {
		gap := int64(data[0] % 8)
		if data[0] >= 250 {
			gap = int64(data[0]) << 24
		}
		cycle += gap
		src, dst := int(data[1])%nodes, int(data[2])%nodes
		if dst == src {
			dst = (dst + 1) % nodes
		}
		events = append(events, traffic.Event{Cycle: cycle, Src: src, Dst: dst, Flits: 1 + int(data[3]%8)})
	}
	return events
}

// encodeStreams returns in's checkpoint walk.
func encodeStreams(t *testing.T, in *injector) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := snap.NewEncoder(&buf)
	defer enc.Release()
	if in.snapStreams(enc); enc.Err() != nil {
		t.Fatal(enc.Err())
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzPendingStreams holds the injector's checkpoint walk to two
// properties. A valid trace, packed and then partly issued, encodes and
// decodes into streams that list the same pending events. Arbitrary bytes
// either decode — into streams that re-encode to the bytes read — or fail
// as a corrupt stream; they never panic.
func FuzzPendingStreams(f *testing.F) {
	const nodes = 16
	f.Add([]byte{}, uint8(0))
	seed := []byte{0, 1, 2, 3, 1, 1, 5, 4, 7, 2, 2, 0, 255, 1, 3, 7, 3, 9, 9, 1}
	f.Add(seed, uint8(2))
	in := newInjector(nodes, 0, 0)
	in.pack(fuzzTrace(seed, nodes))
	var buf bytes.Buffer
	enc := snap.NewEncoder(&buf)
	in.snapStreams(enc)
	if err := enc.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, issued uint8) {
		events := fuzzTrace(data, nodes)
		in := newInjector(nodes, 0, 0)
		in.pack(events)
		bySource := slices.Clone(events)
		slices.SortStableFunc(bySource, func(a, b traffic.Event) int { return a.Src - b.Src })
		if got := pendingEvents(in); !reflect.DeepEqual(got, bySource) && len(events) > 0 {
			t.Fatalf("packed streams list %v, want %v", got, bySource)
		}
		for k := 0; k < int(issued) && !in.done(); k++ {
			if src := k % nodes; len(in.streams[src]) > 0 {
				in.issue(src)
			}
		}
		out := newInjector(nodes, 0, 0)
		dec := snap.NewDecoder(bytes.NewReader(encodeStreams(t, in)))
		if out.snapStreams(dec); dec.Err() != nil {
			t.Fatalf("a valid trace's streams failed to decode: %v", dec.Err())
		}
		dec.Release()
		if got, want := pendingEvents(out), pendingEvents(in); !reflect.DeepEqual(got, want) || out.remaining != in.remaining {
			t.Fatalf("decoded %d pending events %v, want %d: %v", out.remaining, got, in.remaining, want)
		}

		raw := newInjector(nodes, 0, 0)
		dec = snap.NewDecoder(bytes.NewReader(data))
		defer dec.Release()
		if raw.snapStreams(dec); dec.Err() != nil {
			if !snap.IsCorrupt(dec.Err()) {
				t.Fatalf("err = %v, want a snap.CorruptError", dec.Err())
			}
			return
		}
		if re := encodeStreams(t, raw); !bytes.HasPrefix(data, re) {
			t.Fatalf("decoded streams re-encode to %x, not the %x they were read from", re, data[:min(len(re), len(data))])
		}
		if n := len(pendingEvents(raw)); n != raw.remaining {
			t.Fatalf("decode counted %d events, the streams list %d", raw.remaining, n)
		}
	})
}

// injectionCycles drives in over net as drive does — inject, then Step —
// until the network reaches cycle until, and returns the cycle each event
// was issued at. sweepAll forces the per-source sweep on every cycle: the
// reference the skipping injector must match.
func injectionCycles(t *testing.T, net *network.Network, in *injector, until int64, sweepAll bool) []int64 {
	t.Helper()
	var issued []int64
	for now := net.Cycle(); now < until; now = net.Cycle() {
		if sweepAll {
			in.next = math.MinInt64
		}
		before := in.remaining
		if err := in.step(net, now); err != nil {
			t.Fatal(err)
		}
		for k := in.remaining; k < before; k++ {
			issued = append(issued, now)
		}
		if err := net.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return issued
}

// restoredInjector returns in as a checkpoint restores it: the streams
// through their walk, the base beside them, then sync.
func restoredInjector(t *testing.T, in *injector) *injector {
	t.Helper()
	out := newInjector(len(in.streams), in.window, 0)
	dec := snap.NewDecoder(bytes.NewReader(encodeStreams(t, in)))
	defer dec.Release()
	if out.snapStreams(dec); dec.Err() != nil {
		t.Fatal(dec.Err())
	}
	out.base = in.base
	out.sync()
	return out
}

// TestInjectorSweepsOnlyWhenDue holds the injector's idle-cycle skip to a
// reference that sweeps every source every cycle. Source 0's second event
// falls due while its first is outstanding under a window of one, so the
// source is held and must be offered again every cycle until the first
// delivers; the run is also cut by a restore while that source is held and
// by one between two events. Every event must be issued on the same cycle
// in every case.
func TestInjectorSweepsOnlyWhenDue(t *testing.T) {
	cfg := config.Small()
	cfg.SourceWindow = 1
	last := cfg.Routers() - 1
	events := []traffic.Event{
		{Cycle: 0, Src: 0, Dst: last, Flits: 4},
		{Cycle: 2, Src: 0, Dst: last, Flits: 4},
		{Cycle: 60, Src: 5, Dst: 10, Flits: 4},
		{Cycle: 300, Src: 3, Dst: 12, Flits: 4},
	}
	const end = 1000
	run := func(sweepAll bool, restoreAt int64) []int64 {
		s, err := NewSim(cfg, SchemeARQ)
		if err != nil {
			t.Fatal(err)
		}
		in, err := s.accept(events, 0)
		if err != nil {
			t.Fatal(err)
		}
		issued := injectionCycles(t, s.net, in, restoreAt, sweepAll)
		if restoreAt > 0 {
			re := restoredInjector(t, in)
			if re.next != in.next {
				t.Fatalf("restored at cycle %d: next = %d, the live injector's %d", restoreAt, re.next, in.next)
			}
			in = re
		}
		issued = append(issued, injectionCycles(t, s.net, in, end, sweepAll)...)
		if !in.done() {
			t.Fatalf("%d events left unissued by cycle %d", in.remaining, end)
		}
		return issued
	}
	want := run(true, 0)
	if want[1] <= events[1].Cycle || want[1] >= events[2].Cycle {
		t.Fatalf("reference issued source 0's second event at cycle %d; want it held past %d by the window and freed before %d",
			want[1], events[1].Cycle, events[2].Cycle)
	}
	for _, tc := range []struct {
		name      string
		restoreAt int64
	}{
		{"window-blocked source", 0},
		{"restored while the source is held", events[1].Cycle + 1},
		{"restored between two events", 150},
	} {
		if got := run(false, tc.restoreAt); !slices.Equal(got, want) {
			t.Errorf("%s: issued at cycles %v, the every-cycle sweep at %v", tc.name, got, want)
		}
	}
}
