package eventlog

import (
	"bytes"
	"testing"
)

func TestNilLogIsNoOp(t *testing.T) {
	var l *Log
	l.Record(Event{Cycle: 1, Kind: KInject}) // must not panic
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestRecordFormat pins the text format the package doc promises: one
// line an event, "<cycle> <kind> <router> <packet> <aux>", nothing
// written until Flush.
func TestRecordFormat(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	for _, e := range []Event{
		{Cycle: 0, Kind: KInject, Router: 3, Packet: 1},
		{Cycle: 7, Kind: KNACK, Router: 5, Packet: 1, Aux: 1},
		{Cycle: 9, Kind: KHardFault, Router: 4, Aux: 1},
		{Cycle: 12, Kind: KDrop, Router: 6, Packet: 2, Aux: 3},
		{Cycle: 20, Kind: KDeliver, Router: 9, Packet: 1, Aux: 20},
	} {
		l.Record(e)
	}
	if buf.Len() != 0 {
		t.Fatalf("wrote %d bytes before Flush", buf.Len())
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	const want = "0 inject 3 1 0\n" +
		"7 nack 5 1 1\n" +
		"9 hardfault 4 0 1\n" +
		"12 drop 6 2 3\n" +
		"20 deliver 9 1 20\n"
	if got := buf.String(); got != want {
		t.Fatalf("stream:\n%s\nwant:\n%s", got, want)
	}
}

func TestKindString(t *testing.T) {
	if KInject.String() != "inject" || KDeliver.String() != "deliver" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Error("out-of-range kind empty")
	}
}
