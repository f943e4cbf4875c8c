package snap

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// emitDemo writes a small but structurally interesting stream: header,
// two sections, a length-prefixed slice — enough surface for the
// truncation and bit-flip probes below to land on every kind of field.
// One walk serves both directions, as every subsystem's does.
type demo struct {
	vals []int64
	name string
	tail uint64
}

func (d *demo) snap(c *Codec) error {
	if err := c.Header(); err != nil {
		return err
	}
	c.Section("DEMO")
	c.I64s(d.vals)
	c.Section("TAIL")
	c.String(&d.name)
	c.U64(&d.tail)
	return c.Err()
}

func emitDemo(c *Codec) error {
	return (&demo{vals: []int64{1, -2, 3, 1 << 40}, name: "campaign", tail: 0xFEEDFACECAFEBEEF}).snap(c)
}

func readDemo(data []byte) error {
	c := NewDecoder(bytes.NewReader(data))
	if err := (&demo{vals: make([]int64, 4)}).snap(c); err != nil {
		return err
	}
	// The stream must be exactly consumed.
	var extra uint8
	if c.U8(&extra); c.Err() == nil {
		return errors.New("trailing bytes")
	}
	return nil
}

// TestWriteFileAtomic checks the durable path writes a complete,
// readable snapshot and never leaves the .tmp sibling behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "snapshot-000000001000.rlns")
	if err := WriteFileAtomic(path, emitDemo); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("tmp file left behind: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := readDemo(data); err != nil {
		t.Fatalf("round-trip through file: %v", err)
	}
	// A failing emit must leave no file at the final name.
	bad := filepath.Join(dir, "bad.rlns")
	injected := errors.New("emit failed")
	if err := WriteFileAtomic(bad, func(*Codec) error { return injected }); !errors.Is(err, injected) {
		t.Fatalf("emit error not propagated: %v", err)
	}
	if _, err := os.Stat(bad); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed write left a file at the final name")
	}
}

// TestWriteRawAtomic round-trips an opaque payload.
func TestWriteRawAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	want := []byte(`{"name":"chaos"}`)
	if err := WriteRawAtomic(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("payload = %q, want %q", got, want)
	}
}

// TestTruncatedSnapshotIsCorrupt cuts a valid stream at every prefix
// length and checks each one fails with a typed CorruptError — the
// contract recovery relies on to fall back to an older checkpoint.
func TestTruncatedSnapshotIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := emitDemo(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if err := readDemo(full); err != nil {
		t.Fatalf("intact stream rejected: %v", err)
	}
	for cut := 0; cut < len(full); cut++ {
		err := readDemo(full[:cut])
		if err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(full))
		}
		if !IsCorrupt(err) {
			t.Fatalf("truncation at %d: error %v is not a CorruptError", cut, err)
		}
	}
}

// TestBitFlippedSnapshotIsCorrupt flips bits in the structural regions
// a reader always verifies — magic, version, section tags, length
// prefixes — and checks each produces a typed CorruptError. (A flip in
// free-form payload bytes is undetectable by the framing layer alone;
// the simulator's structural LenCheck guards and section tags bound how
// far a misread can propagate.)
func TestBitFlippedSnapshotIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := emitDemo(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Offsets: magic(0..3), version(4..7), "DEMO" tag(8..11), the
	// I64s length prefix(12..15), and the "TAIL" tag that follows the
	// four 8-byte values (16 + 32 .. +3).
	offsets := []int{0, 4, 8, 12, 16 + 32}
	for _, off := range offsets {
		for bit := 0; bit < 8; bit++ {
			data := append([]byte(nil), full...)
			data[off] ^= 1 << bit
			err := readDemo(data)
			if err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", off, bit)
			}
			if !IsCorrupt(err) {
				t.Fatalf("bit flip at byte %d bit %d: error %v is not a CorruptError", off, bit, err)
			}
		}
	}
}

// TestCorruptWrapping pins the helper semantics: nil passes through,
// already-corrupt errors are not double-wrapped, and IsCorrupt sees
// through fmt-style wrapping.
func TestCorruptWrapping(t *testing.T) {
	if Corrupt(nil) != nil {
		t.Error("Corrupt(nil) != nil")
	}
	base := Corrupt(io.ErrUnexpectedEOF)
	if again := Corrupt(base); again != base {
		t.Error("Corrupt double-wrapped an already-corrupt error")
	}
	if !IsCorrupt(base) {
		t.Error("IsCorrupt missed a direct CorruptError")
	}
	if !errors.Is(base, io.ErrUnexpectedEOF) {
		t.Error("CorruptError hides its cause from errors.Is")
	}
	if IsCorrupt(io.ErrUnexpectedEOF) {
		t.Error("IsCorrupt matched an unwrapped error")
	}
}
