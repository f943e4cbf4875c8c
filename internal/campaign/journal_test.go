package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleRecords() []Record {
	rl, qroute := tinySpec("chaos-000-rl"), tinySpec("chaos-001-qroute")
	return []Record{
		{Type: RecSubmit, Job: rl.ID, Spec: &rl},
		{Type: RecSubmit, Job: qroute.ID, Spec: &qroute},
		{Type: RecStart, Job: "chaos-000-rl", Attempt: 1},
		{Type: RecFail, Job: "chaos-000-rl", Attempt: 1, Error: "injected panic", ElapsedMS: 120},
		{Type: RecStart, Job: "chaos-000-rl", Attempt: 2},
		{Type: RecDone, Job: "chaos-000-rl", Outcome: OutcomeDrained,
			Detail: "dead=0", Recovered: true, Result: json.RawMessage(`{"MeanLatency":18.3}`)},
		{Type: RecDead, Job: "chaos-001-qroute", Outcome: OutcomeDead, Error: "budget exhausted"},
	}
}

// TestJournalRoundTrip appends records through one Journal and replays
// them through a second open of the same file.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != uint64(i+1) {
			t.Errorf("record %d: seq %d, want %d", i, got[i].Seq, i+1)
		}
		exp := want[i]
		exp.Seq = uint64(i + 1)
		if !reflect.DeepEqual(got[i], exp) {
			t.Errorf("record %d: %+v != %+v", i, got[i], exp)
		}
	}
	// Appends after a reopen must continue the sequence.
	if err := j2.Append(Record{Type: RecStart, Job: "x"}); err != nil {
		t.Fatal(err)
	}
	_, got2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got2); n != len(want)+1 || got2[n-1].Seq != uint64(n) {
		t.Fatalf("post-reopen append broke the sequence: %d records, last seq %d", n, got2[n-1].Seq)
	}
}

// TestJournalTornTail checks that every possible SIGKILL truncation
// point — inside the batched write of the submit records too — replays
// the longest intact record prefix, and that the reopened journal
// truncates the torn bytes so subsequent appends stay valid.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "full.log")
	j, _, err := OpenJournal(src)
	if err != nil {
		t.Fatal(err)
	}
	sample := sampleRecords()
	if err := j.Append(sample[:2]...); err != nil { // one write: both submits
		t.Fatal(err)
	}
	for _, rec := range sample[2:] {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	full, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int // byte offset after each record
	for off := 0; off < len(full); {
		off += bytes.IndexByte(full[off:], '\n') + 1
		ends = append(ends, off)
	}
	if len(ends) != len(sample) {
		t.Fatalf("journal holds %d lines, want %d", len(ends), len(sample))
	}
	intactAt := func(cut int) int {
		n := 0
		for _, e := range ends {
			if e <= cut {
				n++
			}
		}
		return n
	}
	for cut := 0; cut <= len(full); cut++ {
		path := filepath.Join(dir, "j.log")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs) != intactAt(cut) {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(recs), intactAt(cut))
		}
		// The torn tail must be gone: an append now must be replayable.
		if err := j.Append(Record{Type: RecStart, Job: "after-tear"}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		_, recs2, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs2) != intactAt(cut)+1 || recs2[len(recs2)-1].Job != "after-tear" {
			t.Fatalf("cut %d: append after tear not replayed (got %d records)", cut, len(recs2))
		}
	}
}

// TestJournalCorruptLine flips one payload bit mid-file: replay must
// stop at the corrupt record, not resynchronize past it.
func TestJournalCorruptLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	// Flip a bit in the third record's payload.
	off := len(lines[0]) + len(lines[1]) + 12
	data[off] ^= 0x04
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records past a corrupt line, want 2", len(recs))
	}
}

// FuzzJournal feeds arbitrary bytes to the replay path: it must never
// panic, must report a valid prefix length, and replaying that prefix
// must reproduce the same records (idempotent recovery).
func FuzzJournal(f *testing.F) {
	var seed []byte
	for _, rec := range sampleRecords() {
		rec.Seq = uint64(len(seed)%7) + 1
		line, _ := encodeRecord(rec)
		seed = append(seed, line...)
	}
	f.Add(seed)
	f.Add([]byte("deadbeef {\"seq\":1}\n"))
	f.Add([]byte("00000000 \n not a record \n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, validLen := replayJournal(bytes.NewReader(data))
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0,%d]", validLen, len(data))
		}
		for i, rec := range recs {
			if rec.Seq != uint64(i+1) {
				t.Fatalf("record %d has seq %d", i, rec.Seq)
			}
		}
		recs2, len2 := replayJournal(bytes.NewReader(data[:validLen]))
		if len2 != validLen || !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("replay of the valid prefix is not idempotent (%d/%d bytes, %d/%d records)",
				len2, validLen, len(recs2), len(recs))
		}
	})
}
