// Package eventlog records flit- and packet-level simulator events to a
// compact text stream — the debugging and inspection facility
// cycle-accurate simulators ship (Booksim's watch facility, gem5's trace
// flags). Recording is optional and costs one nil check per event when
// disabled.
//
// The stream is one event a line, five space-separated fields:
//
//	<cycle> <kind> <router> <packet> <aux>
//
// with kind one of the names Kind.String gives. Counting it is one awk:
//
//	awk '{print $2}' run.elog | sort | uniq -c
package eventlog

import (
	"bufio"
	"fmt"
	"io"
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
