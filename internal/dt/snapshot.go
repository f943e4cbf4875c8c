package dt

// Checkpoint/restore for a trained tree (DESIGN.md §15). The tree moves
// as a pre-order walk of its nodes. The training options bound the walk:
// a decode takes no more than opt.MaxDepth levels of recursion however
// the stream claims to go on, so a damaged checkpoint fails as corrupt
// instead of exhausting the stack.

import (
	"fmt"

	"rlnoc/internal/snap"
)

// Snap walks a tree trained under opt. Decoding overwrites t, which may
// be the zero Tree.
func (t *Tree) Snap(c *snap.Codec, opt Options) {
	c.Section("TREE")
	c.Int(&t.features)
	c.Int(&t.nodes)
	if c.Decoding() {
		t.depthLimit = max(opt.MaxDepth, 1)
		// Every level may double the nodes; the depth bound below holds the
		// walk itself to that, this holds the count the stream claims.
		if most := 1<<(t.depthLimit+1) - 1; c.Err() == nil && (t.features < 1 || t.nodes < 1 || t.nodes > most) {
			c.Fail(fmt.Errorf("dt: tree of %d nodes over %d features (at most %d nodes at depth %d)",
				t.nodes, t.features, most, t.depthLimit))
			return
		}
	}
	walked := 0
	t.root = t.snapNode(c, t.root, 0, &walked)
	if c.Decoding() && c.Err() == nil && walked != t.nodes {
		c.Fail(fmt.Errorf("dt: tree holds %d nodes, its header says %d", walked, t.nodes))
	}
}

// snapNode walks the subtree under n (nil when decoding) and returns its
// root.
func (t *Tree) snapNode(c *snap.Codec, n *node, depth int, walked *int) *node {
	if c.Decoding() {
		n = &node{}
	}
	*walked++
	c.Bool(&n.leaf)
	if c.Err() != nil {
		return nil
	}
	if n.leaf {
		c.F64(&n.value)
		return n
	}
	if depth >= t.depthLimit {
		c.Fail(fmt.Errorf("dt: tree splits below its depth limit of %d", t.depthLimit))
		return nil
	}
	c.Int(&n.feature)
	c.F64(&n.threshold)
	if c.Decoding() && c.Err() == nil && (n.feature < 0 || n.feature >= t.features) {
		c.Fail(fmt.Errorf("dt: split on feature %d of %d", n.feature, t.features))
		return nil
	}
	n.left = t.snapNode(c, n.left, depth+1, walked)
	n.right = t.snapNode(c, n.right, depth+1, walked)
	return n
}
