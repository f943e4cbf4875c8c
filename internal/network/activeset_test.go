package network

import (
	"testing"

	"rlnoc/internal/traffic"
)

func TestActiveSetBasics(t *testing.T) {
	s := newActiveSet(130) // spans three words
	if s.count() != 0 {
		t.Fatalf("fresh set count = %d", s.count())
	}
	for _, id := range []int{0, 63, 64, 129} {
		s.add(id)
	}
	s.add(63) // idempotent
	if s.count() != 4 {
		t.Fatalf("count = %d, want 4", s.count())
	}
	if !s.has(64) || s.has(1) {
		t.Fatal("membership wrong")
	}
	s.remove(63)
	if s.has(63) || s.count() != 3 {
		t.Fatal("remove failed")
	}
	// forEach must visit ascending IDs — the same order as a dense scan.
	var seen []int
	s.forEach(func(id int) { seen = append(seen, id) })
	want := []int{0, 64, 129}
	if len(seen) != len(want) {
		t.Fatalf("forEach visited %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("forEach order %v, want %v", seen, want)
		}
	}
	s.addAll(130)
	if s.count() != 130 {
		t.Fatalf("addAll count = %d, want 130", s.count())
	}
	if s.has(130) {
		t.Fatal("addAll set a bit past n")
	}
}

// TestActiveSetsDrainWhenIdle pins the point of the whole exercise: an
// idle network's active sets must empty out (so Step skips every router),
// and fresh traffic must re-activate exactly enough state to deliver.
func TestActiveSetsDrainWhenIdle(t *testing.T) {
	n := newNet(t, testConfig(0), Mode0, false)
	// Everything starts active; a few dozen idle cycles must prune all of
	// it. Stay clear of the control-epoch boundary, which legitimately
	// re-marks routers for mode bookkeeping.
	for i := 0; i < 50; i++ {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if w, ni, p := n.wireActive.count(), n.niActive.count(), n.pipeActive.count(); w != 0 || ni != 0 || p != 0 {
		t.Fatalf("idle network still active: wires=%d nis=%d pipes=%d", w, ni, p)
	}
	// A packet re-activates its source and every hop it touches, and the
	// network still drains to quiescence afterwards.
	if _, err := n.NewDataPacket(0, n.topo.Nodes()-1, 4, n.Cycle()); err != nil {
		t.Fatal(err)
	}
	if n.niActive.count() != 1 {
		t.Fatalf("enqueue marked %d NIs, want 1", n.niActive.count())
	}
	if !runTrace(t, n, nil, n.Cycle()+400) {
		t.Fatal("did not drain after reactivation")
	}
	for i := 0; i < 50; i++ {
		if err := n.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if w, ni, p := n.wireActive.count(), n.niActive.count(), n.pipeActive.count(); w != 0 || ni != 0 || p != 0 {
		t.Fatalf("network did not re-quiesce: wires=%d nis=%d pipes=%d", w, ni, p)
	}
}

// TestSetDenseScanRefills verifies the referee toggle: switching dense
// mode off refills every set (conservative restart), and dense mode keeps
// delivering traffic.
func TestSetDenseScanRefills(t *testing.T) {
	n := newNet(t, testConfig(0), Mode0, false)
	n.SetDenseScan(true)
	ev := []traffic.Event{{Cycle: 1, Src: 0, Dst: 5, Flits: 4}}
	if !runTrace(t, n, ev, 300) {
		t.Fatal("dense scan did not drain")
	}
	n.SetDenseScan(false)
	nodes := n.topo.Nodes()
	if w := n.wireActive.count(); w != nodes {
		t.Fatalf("wireActive refilled to %d, want %d", w, nodes)
	}
	if p := n.pipeActive.count(); p != nodes {
		t.Fatalf("pipeActive refilled to %d, want %d", p, nodes)
	}
	if _, err := n.NewDataPacket(3, 0, 1, n.Cycle()); err != nil {
		t.Fatal(err)
	}
	if !runTrace(t, n, nil, n.Cycle()+300) {
		t.Fatal("active-set resume did not drain")
	}
	if gets, _, puts := n.fpool.Stats(); gets != puts {
		t.Fatalf("flit pool unbalanced: %d gets, %d puts", gets, puts)
	}
}
