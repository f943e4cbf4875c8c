package campaign

// Crash-safe campaign journal. One append-only file of line records,
// each `%08x %s\n`: the IEEE CRC32 of the JSON payload, a space, the
// payload. Every append is fsynced before it is trusted, so the journal
// on disk is always a prefix of the engine's history — a SIGKILL can at
// worst leave one torn line at the tail, which replay detects (CRC or
// JSON or sequence break) and truncates. Records carry a strictly
// increasing sequence number so a corrupt middle (which fsync ordering
// makes impossible, but disks lie) can never be silently skipped over.
//
// The journal is the campaign's only durable record: a submit record
// carries each job's Spec, and the records after it carry the job's
// lifecycle. Replaying it reconstructs every job and its state; in-flight
// jobs resume from their on-disk checkpoints.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Record event types.
const (
	// RecSubmit adds a job to the campaign; Spec holds its definition.
	RecSubmit = "submit"
	// RecStart marks an attempt beginning (Attempt = starts so far).
	RecStart = "start"
	// RecDone marks a job completing with a classified outcome; Result
	// holds the marshaled core.Result.
	RecDone = "done"
	// RecFail marks an attempt killed by the progress watchdog for the
	// first time; the job re-enters the queue at once.
	RecFail = "fail"
	// RecSuspend marks an attempt stopped by graceful shutdown with its
	// state checkpointed; the job stays pending.
	RecSuspend = "suspend"
	// RecDead marks a job abandoned (a failed attempt or an expired
	// deadline).
	RecDead = "dead"
)

// Record is one journal line.
type Record struct {
	Seq     uint64 `json:"seq"`
	Type    string `json:"type"`
	Job     string `json:"job"`
	Attempt int    `json:"attempt,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	Detail  string `json:"detail,omitempty"`
	Error   string `json:"error,omitempty"`
	// Recovered marks a done-record whose run resumed from a checkpoint.
	Recovered bool `json:"recovered,omitempty"`
	// ElapsedMS accumulates the job's running wall-clock time, restored
	// after a crash so per-job deadlines span process restarts.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	// Result is the marshaled core.Result of a done-record.
	Result json.RawMessage `json:"result,omitempty"`
	// Spec is the job a submit-record adds.
	Spec *Spec `json:"spec,omitempty"`
}

// Journal is the append side. Safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	seq    uint64
	nosync bool // a scratch campaign's journal (OpenScratch)
}

// encodeRecord renders one journal line (CRC, space, JSON, newline).
func encodeRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("campaign: journal encode: %w", err)
	}
	return []byte(fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload)), nil
}

// decodeLine parses and verifies one journal line.
func decodeLine(line []byte) (Record, error) {
	var rec Record
	s := string(line)
	sp := strings.IndexByte(s, ' ')
	if sp != 8 {
		return rec, fmt.Errorf("campaign: journal line has no CRC prefix")
	}
	want, err := strconv.ParseUint(s[:sp], 16, 32)
	if err != nil {
		return rec, fmt.Errorf("campaign: journal CRC prefix: %w", err)
	}
	payload := s[sp+1:]
	if got := crc32.ChecksumIEEE([]byte(payload)); got != uint32(want) {
		return rec, fmt.Errorf("campaign: journal CRC mismatch (%08x != %08x)", got, want)
	}
	if err := json.Unmarshal([]byte(payload), &rec); err != nil {
		return rec, fmt.Errorf("campaign: journal payload: %w", err)
	}
	return rec, nil
}

// replayJournal reads records from r until EOF or the first invalid
// line — a CRC or JSON failure, or a sequence break — and returns the
// valid prefix plus its byte length. A torn tail (the one line a
// SIGKILL mid-append can leave) lands in the invalid case by
// construction; everything after the first invalid line is untrusted
// and discarded with it.
func replayJournal(r io.Reader) (recs []Record, validLen int64) {
	br := bufio.NewReader(r)
	var off int64
	var prevSeq uint64
	for {
		line, err := br.ReadBytes('\n')
		if err != nil || len(line) == 0 {
			return recs, off
		}
		rec, derr := decodeLine(line[:len(line)-1])
		if derr != nil || rec.Seq != prevSeq+1 {
			return recs, off
		}
		prevSeq = rec.Seq
		off += int64(len(line))
		recs = append(recs, rec)
	}
}

// OpenJournal opens (creating if absent) the journal at path, replays
// its valid prefix, truncates any torn tail, and returns the journal
// positioned for appends plus the replayed records.
func OpenJournal(path string) (*Journal, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: journal: %w", err)
	}
	recs, validLen := replayJournal(f)
	// Cut only a torn tail: on ext4, truncating to zero flushes at close.
	if end, err := f.Seek(0, io.SeekEnd); err != nil || end > validLen {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("campaign: journal truncate: %w", err)
		}
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: journal seek: %w", err)
	}
	j := &Journal{f: f}
	if n := len(recs); n > 0 {
		j.seq = recs[n-1].Seq
	}
	return j, recs, nil
}

// Append assigns the records the next sequence numbers, writes them in
// one write, and fsyncs before returning: once Append returns nil every
// record survives any crash.
func (j *Journal) Append(recs ...Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var buf []byte
	for i, rec := range recs {
		rec.Seq = j.seq + uint64(i) + 1
		line, err := encodeRecord(rec)
		if err != nil {
			return err
		}
		buf = append(buf, line...)
	}
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("campaign: journal append: %w", err)
	}
	j.seq += uint64(len(recs))
	if j.nosync {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("campaign: journal sync: %w", err)
	}
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }
