// Package eventlog records flit- and packet-level simulator events to a
// compact text stream and analyzes recorded streams — the debugging and
// inspection facility cycle-accurate simulators ship (Booksim's watch
// facility, gem5's trace flags). Recording is optional and costs one nil
// check per event when disabled.
package eventlog

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	KInject    Kind = iota // packet created at a source NI
	KAccept                // flit accepted into an input buffer
	KLinkTx                // flit transmitted on a link
	KNACK                  // link-level NACK raised
	KRetx                  // link-level retransmission sent
	KCRCFail               // packet failed the destination CRC
	KDeliver               // packet delivered
	KHardFault             // a link or router hard-failed (Aux: 0 link, 1 router)
	KDrop                  // flit discarded or packet declared lost (Aux: stats.DropReason)
	numKinds
)

var kindNames = [numKinds]string{"inject", "accept", "linktx", "nack", "retx", "crcfail", "deliver", "hardfault", "drop"}

func (k Kind) String() string {
	if k >= numKinds {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// Event is one recorded occurrence. Aux is kind-specific (flit sequence,
// latency at delivery, ...).
type Event struct {
	Cycle  int64
	Kind   Kind
	Router int
	Packet uint64
	Aux    int64
}

// Log writes events to a stream. A nil *Log is a valid no-op recorder.
type Log struct {
	w *bufio.Writer
}

// New wraps a writer into a Log.
func New(w io.Writer) *Log {
	return &Log{w: bufio.NewWriterSize(w, 1<<16)}
}

// Record appends one event; it is a no-op on a nil Log. The nil guard is
// all there is here so it inlines into the simulator's hot-path call
// sites (CI checks `can inline (*Log).Record`): with logging off they
// cost a compare, not a call.
func (l *Log) Record(e Event) {
	if l != nil {
		l.record(e)
	}
}

// record stays a call: inlined back into Record it would push the guard
// over the inlining budget again.
//
//go:noinline
func (l *Log) record(e Event) {
	fmt.Fprintf(l.w, "%d %s %d %d %d\n", e.Cycle, e.Kind, e.Router, e.Packet, e.Aux)
}

// Flush drains buffered events to the underlying writer.
func (l *Log) Flush() error {
	if l == nil {
		return nil
	}
	return l.w.Flush()
}

// Read parses a recorded stream.
func Read(r io.Reader) ([]Event, error) {
	kindByName := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		kindByName[k.String()] = k
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	var events []Event
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" || text[0] == '#' {
			continue
		}
		var e Event
		var kindStr string
		if _, err := fmt.Sscanf(text, "%d %s %d %d %d", &e.Cycle, &kindStr, &e.Router, &e.Packet, &e.Aux); err != nil {
			return nil, fmt.Errorf("eventlog: line %d: %w", line, err)
		}
		k, ok := kindByName[kindStr]
		if !ok {
			return nil, fmt.Errorf("eventlog: line %d: unknown kind %q", line, kindStr)
		}
		e.Kind = k
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	return events, nil
}

// Analysis summarizes a recorded stream.
type Analysis struct {
	Events      int
	Packets     int
	Delivered   int
	CRCFailures int
	NACKs       int
	Retx        int
	// MeanLatency is the mean inject-to-deliver latency over delivered
	// packets that have both events in the stream.
	MeanLatency float64
	// HottestRouters lists router IDs by descending event count.
	HottestRouters []int
	// PerRouterEvents maps router -> event count.
	PerRouterEvents map[int]int
}

// Analyze computes packet lifetimes and per-router activity.
func Analyze(events []Event) Analysis {
	a := Analysis{Events: len(events), PerRouterEvents: map[int]int{}}
	injectAt := map[uint64]int64{}
	var latSum float64
	var latN int
	for _, e := range events {
		a.PerRouterEvents[e.Router]++
		switch e.Kind {
		case KInject:
			a.Packets++
			injectAt[e.Packet] = e.Cycle
		case KDeliver:
			a.Delivered++
			if t0, ok := injectAt[e.Packet]; ok {
				latSum += float64(e.Cycle - t0)
				latN++
			}
		case KCRCFail:
			a.CRCFailures++
		case KNACK:
			a.NACKs++
		case KRetx:
			a.Retx++
		}
	}
	if latN > 0 {
		a.MeanLatency = latSum / float64(latN)
	}
	for r := range a.PerRouterEvents {
		a.HottestRouters = append(a.HottestRouters, r)
	}
	sort.Slice(a.HottestRouters, func(i, j int) bool {
		ri, rj := a.HottestRouters[i], a.HottestRouters[j]
		if a.PerRouterEvents[ri] != a.PerRouterEvents[rj] {
			return a.PerRouterEvents[ri] > a.PerRouterEvents[rj]
		}
		return ri < rj
	})
	return a
}

// Format renders an Analysis as text.
func (a Analysis) Format() string {
	s := fmt.Sprintf("events %d, packets %d, delivered %d, crc failures %d, nacks %d, retx %d\n",
		a.Events, a.Packets, a.Delivered, a.CRCFailures, a.NACKs, a.Retx)
	s += fmt.Sprintf("mean inject-to-deliver latency: %.2f cycles\n", a.MeanLatency)
	top := a.HottestRouters
	if len(top) > 5 {
		top = top[:5]
	}
	s += "hottest routers:"
	for _, r := range top {
		s += fmt.Sprintf(" %d(%d)", r, a.PerRouterEvents[r])
	}
	return s + "\n"
}
