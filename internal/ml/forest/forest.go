// Package forest implements CART decision trees and the bagged Random
// Forest classifier the paper evaluates (§III-B): bootstrap-sampled trees
// with per-split random feature subsets and majority-vote prediction.
package forest

import (
	"fmt"
	"math"
	"sort"

	"ddoshield/internal/sim"
)

// Config tunes forest training.
type Config struct {
	// Trees is the ensemble size (default 50).
	Trees int
	// MaxDepth bounds tree depth (default 12).
	MaxDepth int
	// MinSamplesLeaf is the smallest admissible leaf (default 2).
	MinSamplesLeaf int
	// FeaturesPerSplit is the number of random features considered per
	// split; 0 means floor(sqrt(numFeatures)).
	FeaturesPerSplit int
	// Classes is the number of class labels (default 2).
	Classes int
	// Seed drives bootstrap sampling and feature selection.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Trees <= 0 {
		c.Trees = 50
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinSamplesLeaf <= 0 {
		c.MinSamplesLeaf = 2
	}
	if c.Classes <= 0 {
		c.Classes = 2
	}
	return c
}

// Node is one tree node in the flattened representation (exported fields
// for gob serialization).
type Node struct {
	// Feature is the split feature index (-1 for leaves).
	Feature int32
	// Threshold routes x[Feature] <= Threshold to Left, else Right.
	Threshold float64
	// Left and Right are child indices into the tree's node slice.
	Left, Right int32
	// Class is the predicted label at leaves.
	Class int32
}

// Tree is one CART decision tree.
type Tree struct {
	Nodes []Node
}

// Predict routes x to a leaf.
func (t *Tree) Predict(x []float64) int {
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			return int(n.Class)
		}
		if x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// Depth reports the tree's maximum depth.
func (t *Tree) Depth() int {
	var walk func(i int32) int
	walk = func(i int32) int {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			return 1
		}
		l, r := walk(n.Left), walk(n.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	if len(t.Nodes) == 0 {
		return 0
	}
	return walk(0)
}

// Forest is the trained ensemble.
type Forest struct {
	Cfg      Config
	TreeList []*Tree
	Features int
}

// Name implements ml.Classifier.
func (f *Forest) Name() string { return "rf" }

// Predict returns the majority vote over the ensemble.
func (f *Forest) Predict(x []float64) int {
	// The tally lives on the stack for any class count the IDS uses.
	var few [8]int
	votes := few[:]
	if f.Cfg.Classes > len(few) {
		votes = make([]int, f.Cfg.Classes)
	}
	votes = votes[:f.Cfg.Classes]
	for _, t := range f.TreeList {
		votes[t.Predict(x)]++
	}
	best, bestN := 0, -1
	for c, n := range votes {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return best
}

// NumNodes reports total nodes across the ensemble (drives model size).
func (f *Forest) NumNodes() int {
	n := 0
	for _, t := range f.TreeList {
		n += len(t.Nodes)
	}
	return n
}

// MemoryBytes estimates the live in-memory footprint of the model: node
// storage plus per-tree overhead.
func (f *Forest) MemoryBytes() int64 {
	const nodeBytes = 32 // Feature(4)+pad+Threshold(8)+Left/Right(8)+Class(4)+pad
	return int64(f.NumNodes())*nodeBytes + int64(len(f.TreeList))*48
}

// Train fits a forest on rows xs with labels ys.
func Train(cfg Config, xs [][]float64, ys []int) (*Forest, error) {
	cfg = cfg.withDefaults()
	if len(xs) == 0 {
		return nil, fmt.Errorf("forest: empty training set")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("forest: %d rows vs %d labels", len(xs), len(ys))
	}
	nf := len(xs[0])
	mtry := cfg.FeaturesPerSplit
	if mtry <= 0 {
		mtry = int(math.Sqrt(float64(nf)))
		if mtry < 1 {
			mtry = 1
		}
	}
	if mtry > nf {
		mtry = nf
	}
	f := &Forest{Cfg: cfg, Features: nf}
	rng := sim.Substream(cfg.Seed, "forest")
	for i := 0; i < cfg.Trees; i++ {
		idx := make([]int, len(xs))
		for j := range idx {
			idx[j] = rng.Intn(len(xs)) // bootstrap with replacement
		}
		b := &builder{
			cfg: cfg, xs: xs, ys: ys, rng: rng, mtry: mtry, nf: nf,
		}
		b.build(idx, 0) // root lands at node index 0
		f.TreeList = append(f.TreeList, &Tree{Nodes: b.nodes})
	}
	return f, nil
}

type builder struct {
	cfg   Config
	xs    [][]float64
	ys    []int
	rng   *sim.RNG
	mtry  int
	nf    int
	nodes []Node
}

// majority returns the most common label among idx.
func (b *builder) majority(idx []int) int32 {
	counts := make([]int, b.cfg.Classes)
	for _, i := range idx {
		counts[b.ys[i]]++
	}
	best, bestN := 0, -1
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return int32(best)
}

// gini computes impurity of a count histogram with total n.
func gini(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		g -= p * p
	}
	return g
}

func pure(counts []int) bool {
	nz := 0
	for _, c := range counts {
		if c > 0 {
			nz++
		}
	}
	return nz <= 1
}

// build grows the subtree over idx and returns its node index.
func (b *builder) build(idx []int, depth int) int32 {
	counts := make([]int, b.cfg.Classes)
	for _, i := range idx {
		counts[b.ys[i]]++
	}
	leaf := func() int32 {
		b.nodes = append(b.nodes, Node{Feature: -1, Class: b.majority(idx)})
		return int32(len(b.nodes) - 1)
	}
	if depth >= b.cfg.MaxDepth || len(idx) < 2*b.cfg.MinSamplesLeaf || pure(counts) {
		return leaf()
	}

	// Pick mtry random features and find the best gini split.
	parentGini := gini(counts, len(idx))
	bestFeat, bestThr, bestGain := -1, 0.0, 1e-12
	feats := b.rng.Perm(b.nf)[:b.mtry]
	type pair struct {
		v float64
		y int
	}
	pairs := make([]pair, len(idx))
	for _, feat := range feats {
		for k, i := range idx {
			pairs[k] = pair{v: b.xs[i][feat], y: b.ys[i]}
		}
		sort.Slice(pairs, func(a, c int) bool { return pairs[a].v < pairs[c].v })
		left := make([]int, b.cfg.Classes)
		right := make([]int, b.cfg.Classes)
		copy(right, counts)
		for k := 0; k < len(pairs)-1; k++ {
			left[pairs[k].y]++
			right[pairs[k].y]--
			if pairs[k].v == pairs[k+1].v {
				continue
			}
			nl, nr := k+1, len(pairs)-k-1
			if nl < b.cfg.MinSamplesLeaf || nr < b.cfg.MinSamplesLeaf {
				continue
			}
			w := (float64(nl)*gini(left, nl) + float64(nr)*gini(right, nr)) / float64(len(pairs))
			if gain := parentGini - w; gain > bestGain {
				bestGain = gain
				bestFeat = feat
				bestThr = (pairs[k].v + pairs[k+1].v) / 2
			}
		}
	}
	if bestFeat < 0 {
		return leaf()
	}

	var li, ri []int
	for _, i := range idx {
		if b.xs[i][bestFeat] <= bestThr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return leaf()
	}
	self := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Feature: int32(bestFeat), Threshold: bestThr})
	l := b.build(li, depth+1)
	r := b.build(ri, depth+1)
	b.nodes[self].Left = l
	b.nodes[self].Right = r
	return self
}
