// Package dt implements the supervised-learning baseline of DiTomaso et
// al. (MICRO 2016) as the paper describes it: a regression decision tree
// (CART, variance-reduction splits) trained offline on labeled examples
// mapping runtime NoC features to observed link timing-error rates. At
// runtime the tree predicts the error rate and fixed mode bounds map the
// prediction to one of the four fault-tolerant operation modes.
// Unlike the RL controller, the tree is not updated during the testing
// phase.
package dt

import (
	"fmt"
	"math"
	"sort"
)

// Sample is one labeled training example: a feature vector and the
// observed error rate.
type Sample struct {
	X []float64
	Y float64
}

// Tree is a trained CART regression tree.
type Tree struct {
	root       *node
	features   int
	nodes      int
	depthLimit int
}

type node struct {
	leaf      bool
	value     float64
	feature   int
	threshold float64
	left      *node
	right     *node
}

// Options tunes training.
type Options struct {
	MaxDepth    int // maximum tree depth (root = depth 0)
	MinLeafSize int // minimum samples per leaf
}

// DefaultOptions bounds the tree to something a small hardware evaluator
// could hold.
func DefaultOptions() Options { return Options{MaxDepth: 6, MinLeafSize: 8} }

// Train fits a regression tree on the samples. All samples must share the
// same feature dimensionality.
func Train(samples []Sample, opt Options) (*Tree, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("dt: no training samples")
	}
	dim := len(samples[0].X)
	if dim == 0 {
		return nil, fmt.Errorf("dt: empty feature vectors")
	}
	for i, s := range samples {
		if len(s.X) != dim {
			return nil, fmt.Errorf("dt: sample %d has %d features, want %d", i, len(s.X), dim)
		}
	}
	if opt.MaxDepth < 1 {
		opt.MaxDepth = 1
	}
	if opt.MinLeafSize < 1 {
		opt.MinLeafSize = 1
	}
	t := &Tree{features: dim, depthLimit: opt.MaxDepth}
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(samples, idx, 0, opt)
	return t, nil
}

func mean(samples []Sample, idx []int) float64 {
	var sum float64
	for _, i := range idx {
		sum += samples[i].Y
	}
	return sum / float64(len(idx))
}

// sse returns the sum of squared errors around the subset mean.
func sse(samples []Sample, idx []int) float64 {
	m := mean(samples, idx)
	var s float64
	for _, i := range idx {
		d := samples[i].Y - m
		s += d * d
	}
	return s
}

func (t *Tree) build(samples []Sample, idx []int, depth int, opt Options) *node {
	t.nodes++
	m := mean(samples, idx)
	if depth >= opt.MaxDepth || len(idx) < 2*opt.MinLeafSize || sse(samples, idx) < 1e-18 {
		return &node{leaf: true, value: m}
	}
	bestFeature, bestThreshold, bestScore := -1, 0.0, math.Inf(1)
	order := make([]int, len(idx))
	for f := 0; f < t.features; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return samples[order[a]].X[f] < samples[order[b]].X[f] })
		// Prefix sums over the sorted order let us score every split in
		// O(n) per feature.
		var sumL, sumSqL float64
		var sumR, sumSqR float64
		for _, i := range order {
			sumR += samples[i].Y
			sumSqR += samples[i].Y * samples[i].Y
		}
		n := len(order)
		for k := 0; k < n-1; k++ {
			y := samples[order[k]].Y
			sumL += y
			sumSqL += y * y
			sumR -= y
			sumSqR -= y * y
			// Can't split between equal feature values.
			if samples[order[k]].X[f] == samples[order[k+1]].X[f] {
				continue
			}
			nl, nr := k+1, n-k-1
			if nl < opt.MinLeafSize || nr < opt.MinLeafSize {
				continue
			}
			scoreL := sumSqL - sumL*sumL/float64(nl)
			scoreR := sumSqR - sumR*sumR/float64(nr)
			if score := scoreL + scoreR; score < bestScore {
				bestScore = score
				bestFeature = f
				bestThreshold = (samples[order[k]].X[f] + samples[order[k+1]].X[f]) / 2
			}
		}
	}
	if bestFeature < 0 {
		return &node{leaf: true, value: m}
	}
	var left, right []int
	for _, i := range idx {
		if samples[i].X[bestFeature] <= bestThreshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &node{leaf: true, value: m}
	}
	return &node{
		feature:   bestFeature,
		threshold: bestThreshold,
		left:      t.build(samples, left, depth+1, opt),
		right:     t.build(samples, right, depth+1, opt),
	}
}

// Predict returns the tree's error-rate estimate for a feature vector.
func (t *Tree) Predict(x []float64) float64 {
	n := t.root
	for !n.leaf {
		if n.feature < len(x) && x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// ModeBounds split the predicted error rate into the four operation
// modes, per the DT baseline ("operation modes are selected according to
// DT predicted error rate"): a rate below ModeBounds[m] runs Mode m, one
// at or above the last runs Mode 3. They sit at the analytic cost
// crossovers of the four modes (internal/analytic, latency x energy at
// zero load): ECC becomes worthwhile around 1% per-hop error rate and
// timing relaxation around 17%; pre-retransmission gets the upper-middle
// band, where its NACK-round-trip savings matter under load. Nothing
// writes them.
var ModeBounds = [3]float64{0.01, 0.08, 0.17}

// Mode returns the operation mode for a feature vector: the band of
// ModeBounds the tree's predicted error rate falls in.
func (t *Tree) Mode(x []float64) int {
	rate := t.Predict(x)
	switch {
	case rate < ModeBounds[0]:
		return 0
	case rate < ModeBounds[1]:
		return 1
	case rate < ModeBounds[2]:
		return 2
	default:
		return 3
	}
}
