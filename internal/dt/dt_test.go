package dt

import (
	"math"
	"math/rand"
	"testing"
)

func TestTrainRejectsBadInput(t *testing.T) {
	if _, err := Train(nil, DefaultOptions()); err == nil {
		t.Error("Train(nil) succeeded")
	}
	if _, err := Train([]Sample{{X: nil, Y: 1}}, DefaultOptions()); err == nil {
		t.Error("Train with empty features succeeded")
	}
	if _, err := Train([]Sample{{X: []float64{1}, Y: 1}, {X: []float64{1, 2}, Y: 2}}, DefaultOptions()); err == nil {
		t.Error("Train with ragged features succeeded")
	}
}

func TestConstantTargetGivesSingleLeaf(t *testing.T) {
	var samples []Sample
	for i := 0; i < 50; i++ {
		samples = append(samples, Sample{X: []float64{float64(i)}, Y: 0.5})
	}
	tree, err := Train(samples, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if depthOf(tree.root) != 0 {
		t.Errorf("constant target grew depth %d", depthOf(tree.root))
	}
	if got := tree.Predict([]float64{7}); got != 0.5 {
		t.Errorf("Predict = %g, want 0.5", got)
	}
}

func TestLearnsStepFunction(t *testing.T) {
	// y = 0.9 if x0 > 5 else 0.1: a single split should nail it.
	var samples []Sample
	for i := 0; i < 100; i++ {
		x := float64(i) / 10
		y := 0.1
		if x > 5 {
			y = 0.9
		}
		samples = append(samples, Sample{X: []float64{x}, Y: y})
	}
	tree, err := Train(samples, Options{MaxDepth: 3, MinLeafSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict([]float64{2}); math.Abs(got-0.1) > 0.01 {
		t.Errorf("Predict(2) = %g, want ~0.1", got)
	}
	if got := tree.Predict([]float64{8}); math.Abs(got-0.9) > 0.01 {
		t.Errorf("Predict(8) = %g, want ~0.9", got)
	}
}

func TestPicksInformativeFeature(t *testing.T) {
	// Feature 0 is noise, feature 1 determines y.
	rng := rand.New(rand.NewSource(3))
	var samples []Sample
	for i := 0; i < 200; i++ {
		noise := rng.Float64()
		signal := rng.Float64()
		y := 0.0
		if signal > 0.5 {
			y = 1.0
		}
		samples = append(samples, Sample{X: []float64{noise, signal}, Y: y})
	}
	tree, err := Train(samples, Options{MaxDepth: 1, MinLeafSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tree.root.leaf {
		t.Fatal("tree did not split at all")
	}
	if tree.root.feature != 1 {
		t.Fatalf("root split on feature %d, want 1", tree.root.feature)
	}
	if math.Abs(tree.root.threshold-0.5) > 0.1 {
		t.Errorf("root threshold %g, want ~0.5", tree.root.threshold)
	}
}

func TestLearnsSmoothFunctionApproximately(t *testing.T) {
	// y = x0 * x1 on [0,1]^2; a depth-6 tree should reach low error.
	rng := rand.New(rand.NewSource(4))
	var samples []Sample
	for i := 0; i < 2000; i++ {
		a, b := rng.Float64(), rng.Float64()
		samples = append(samples, Sample{X: []float64{a, b}, Y: a * b})
	}
	tree, err := Train(samples, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sumSq float64
	const probes = 500
	for i := 0; i < probes; i++ {
		a, b := rng.Float64(), rng.Float64()
		d := tree.Predict([]float64{a, b}) - a*b
		sumSq += d * d
	}
	rmse := math.Sqrt(sumSq / probes)
	if rmse > 0.08 {
		t.Errorf("RMSE = %g, want <= 0.08", rmse)
	}
}

func TestDepthRespectsLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var samples []Sample
	for i := 0; i < 500; i++ {
		samples = append(samples, Sample{X: []float64{rng.Float64()}, Y: rng.Float64()})
	}
	for _, depth := range []int{1, 2, 4} {
		tree, err := Train(samples, Options{MaxDepth: depth, MinLeafSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		if depthOf(tree.root) > depth {
			t.Errorf("depth %d exceeds limit %d", depthOf(tree.root), depth)
		}
	}
}

func TestMinLeafSizeRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var samples []Sample
	for i := 0; i < 100; i++ {
		samples = append(samples, Sample{X: []float64{rng.Float64()}, Y: rng.Float64()})
	}
	tree, err := Train(samples, Options{MaxDepth: 20, MinLeafSize: 30})
	if err != nil {
		t.Fatal(err)
	}
	checkLeafSizes(t, tree.root, samples, indices(len(samples)), 30)
}

func indices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func checkLeafSizes(t *testing.T, n *node, samples []Sample, idx []int, minLeaf int) {
	t.Helper()
	if n.leaf {
		if len(idx) < minLeaf {
			t.Errorf("leaf holds %d samples, min %d", len(idx), minLeaf)
		}
		return
	}
	var left, right []int
	for _, i := range idx {
		if samples[i].X[n.feature] <= n.threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	checkLeafSizes(t, n.left, samples, left, minLeaf)
	checkLeafSizes(t, n.right, samples, right, minLeaf)
}

func TestOptionsSanitized(t *testing.T) {
	samples := []Sample{{X: []float64{1}, Y: 1}, {X: []float64{2}, Y: 2}}
	tree, err := Train(samples, Options{MaxDepth: 0, MinLeafSize: 0})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Predict([]float64{1}) == 0 {
		t.Error("degenerate options produced unusable tree")
	}
}

func TestPolicyThresholds(t *testing.T) {
	// A tree that predicts exactly its input.
	var samples []Sample
	for i := 0; i <= 1000; i++ {
		v := float64(i) / 1000 * 0.3
		samples = append(samples, Sample{X: []float64{v}, Y: v})
	}
	tree, err := Train(samples, Options{MaxDepth: 12, MinLeafSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[float64]int{
		0.001: 0,
		0.03:  1,
		0.1:   2,
		0.25:  3,
	}
	for rate, want := range cases {
		if got := tree.Mode([]float64{rate}); got != want {
			t.Errorf("Mode(rate=%g) = %d, want %d (predicted %g)", rate, got, want, tree.Predict([]float64{rate}))
		}
	}
}

func TestPolicyModeMonotone(t *testing.T) {
	var samples []Sample
	for i := 0; i <= 300; i++ {
		v := float64(i) / 1000
		samples = append(samples, Sample{X: []float64{v}, Y: v})
	}
	tree, err := Train(samples, Options{MaxDepth: 12, MinLeafSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for i := 0; i <= 300; i += 2 {
		m := tree.Mode([]float64{float64(i) / 1000})
		if m < prev {
			t.Fatalf("mode not monotone in error rate at %g: %d after %d", float64(i)/1000, m, prev)
		}
		prev = m
	}
	if prev != 3 {
		t.Fatalf("high error rate maps to mode %d, want 3", prev)
	}
}

func BenchmarkPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	var samples []Sample
	for i := 0; i < 5000; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		samples = append(samples, Sample{X: x, Y: x[2] * x[5]})
	}
	tree, err := Train(samples, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	probe := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tree.Predict(probe)
	}
}

// depthOf is the depth of the subtree at n (a leaf is depth 0).
func depthOf(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}
