package dt

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"rlnoc/internal/snap"
)

// encodeTree returns the stream Snap writes for t.
func encodeTree(t *testing.T, tree *Tree, opt Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	c := snap.NewEncoder(&buf)
	tree.Snap(c, opt)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeTree reads a tree trained under opt back from data.
func decodeTree(data []byte, opt Options) (*Tree, error) {
	c := snap.NewDecoder(bytes.NewReader(data))
	tree := new(Tree)
	tree.Snap(c, opt)
	return tree, c.Err()
}

func TestTreeSnapRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var samples []Sample
	for i := 0; i < 600; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		samples = append(samples, Sample{X: x, Y: x[0]*x[1] + 0.3*x[2]})
	}
	opt := DefaultOptions()
	tree, err := Train(samples, opt)
	if err != nil {
		t.Fatal(err)
	}
	if depthOf(tree.root) < 3 {
		t.Fatalf("tree of depth %d: too shallow to exercise the walk", depthOf(tree.root))
	}
	data := encodeTree(t, tree, opt)
	got, err := decodeTree(data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tree) {
		t.Fatalf("decoded tree differs: %d nodes, depth %d against %d nodes, depth %d",
			got.nodes, depthOf(got.root), tree.nodes, depthOf(tree.root))
	}
	if again := encodeTree(t, got, opt); !bytes.Equal(again, data) {
		t.Error("re-encoding the decoded tree gives different bytes")
	}
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := decodeTree(data[:cut], opt); !snap.IsCorrupt(err) {
			t.Fatalf("stream cut at %d of %d bytes: err = %v, want a snap.CorruptError", cut, len(data), err)
		}
	}
}

// chain builds a degenerate tree of the given depth: every right child
// splits again, every left child is a leaf.
func chain(depth int) *Tree {
	root := &node{leaf: true}
	for i := 0; i < depth; i++ {
		root = &node{threshold: float64(i), left: &node{leaf: true}, right: root}
	}
	return &Tree{root: root, features: 1, nodes: 2*depth + 1, depthLimit: depth}
}

// TestHostileTreeIsCorrupt decodes trees no training run under the
// restoring options could have produced. Each must fail as a corrupt
// stream, and the too-deep one within the depth bound: a decoder that
// followed a hundred thousand levels because the stream said so would
// grow the stack until the process died, and the fall-back to the previous
// checkpoint would never run.
func TestHostileTreeIsCorrupt(t *testing.T) {
	opt := DefaultOptions()
	for name, tree := range map[string]*Tree{
		"one level too deep":      chain(opt.MaxDepth + 1),
		"a hundred thousand deep": chain(100_000),
		"bad feature index":       {root: &node{feature: 3, left: &node{leaf: true}, right: &node{leaf: true}}, features: 3, nodes: 3, depthLimit: 1},
		"more nodes than its header": {root: &node{left: &node{leaf: true}, right: &node{leaf: true}},
			features: 1, nodes: 1, depthLimit: 1},
		"header beyond the depth bound": {root: &node{leaf: true}, features: 1, nodes: 1 << (opt.MaxDepth + 1), depthLimit: 1},
		"no features":                   {root: &node{leaf: true}, features: 0, nodes: 1, depthLimit: 1},
	} {
		data := encodeTree(t, tree, Options{MaxDepth: tree.depthLimit})
		if _, err := decodeTree(data, opt); !snap.IsCorrupt(err) {
			t.Errorf("%s: err = %v, want a snap.CorruptError", name, err)
		}
	}
	if _, err := decodeTree(encodeTree(t, chain(opt.MaxDepth), opt), opt); err != nil {
		t.Errorf("a chain of exactly the depth limit: %v", err)
	}
}
