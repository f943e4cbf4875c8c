package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

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
