package stats

import (
	"bytes"
	"testing"

	"rlnoc/internal/snap"
)

// TestNilRecoveryLogIsNoOp calls every RecoveryLog method on a nil
// receiver: a network without a kill schedule carries a nil log and
// records into it unguarded.
func TestNilRecoveryLogIsNoOp(t *testing.T) {
	var l *RecoveryLog
	l.RecordKill(10)
	l.RecordDelivery(12)
	if f := l.Format(); f != "no kills" {
		t.Errorf("Format = %q, want %q", f, "no kills")
	}
	var buf bytes.Buffer
	enc := snap.NewEncoder(&buf)
	if err := l.Snap(enc); err != nil {
		t.Fatalf("Snap: %v", err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("Snap of a nil log wrote no record")
	}
}
