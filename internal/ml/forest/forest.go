// Package forest implements CART decision trees and the bagged Random
// Forest classifier the paper evaluates (§III-B): bootstrap-sampled trees
// with per-split random feature subsets and majority-vote prediction.
package forest

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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

// Train fits a forest on rows xs with labels ys. Every feature must be
// finite and every label in [0, Classes).
//
// Rows with the same bits are one distinct row to the trees: a bootstrap
// draw counts toward its (distinct row, class) pair, and a node sorts and
// partitions the distinct rows it holds, weighted by those counts. A
// collected corpus repeats rows heavily (every packet of a window shares
// the window's statistics block). The trees are the ones a builder that
// sorts every drawn row at every node grows, byte for byte.
func Train(cfg Config, xs [][]float64, ys []int) (*Forest, error) {
	cfg = cfg.withDefaults()
	if len(xs) == 0 {
		return nil, fmt.Errorf("forest: empty training set")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("forest: %d rows vs %d labels", len(xs), len(ys))
	}
	nf := len(xs[0])
	for i, x := range xs {
		if len(x) != nf {
			return nil, fmt.Errorf("forest: row %d has %d features, want %d", i, len(x), nf)
		}
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("forest: row %d column %d is %v, want a finite value", i, j, v)
			}
		}
		if ys[i] < 0 || ys[i] >= cfg.Classes {
			return nil, fmt.Errorf("forest: row %d has label %d, want one in [0, %d)", i, ys[i], cfg.Classes)
		}
	}
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
	rows, of := distinct(xs)
	b := &builder{
		cfg: cfg, rows: rows, rng: sim.Substream(cfg.Seed, "forest"), mtry: mtry, nf: nf,
		weight: make([]int, len(rows)*cfg.Classes),
		items:  make([]item, len(rows)),
	}
	f := &Forest{Cfg: cfg, Features: nf}
	held := make([]int32, 0, len(rows))
	for i := 0; i < cfg.Trees; i++ {
		clear(b.weight)
		for range xs {
			j := b.rng.Intn(len(xs)) // bootstrap with replacement
			b.weight[int(of[j])*cfg.Classes+ys[j]]++
		}
		held = held[:0]
		for r := range rows {
			if slices.ContainsFunc(b.drawn(int32(r)), func(w int) bool { return w > 0 }) {
				held = append(held, int32(r))
			}
		}
		b.nodes = nil
		b.build(held, 0) // root lands at node index 0
		f.TreeList = append(f.TreeList, &Tree{Nodes: b.nodes})
	}
	return f, nil
}

// distinct groups the rows of xs by their bits: rows holds each distinct
// row once, in order of first appearance, and rows[of[i]] is xs[i]'s.
func distinct(xs [][]float64) (rows [][]float64, of []int32) {
	seen := make(map[string]int32)
	key := make([]byte, 8*len(xs[0]))
	of = make([]int32, len(xs))
	for i, x := range xs {
		for j, v := range x {
			binary.LittleEndian.PutUint64(key[8*j:], math.Float64bits(v))
		}
		r, ok := seen[string(key)]
		if !ok {
			r = int32(len(rows))
			seen[string(key)] = r
			rows = append(rows, x)
		}
		of[i] = r
	}
	return rows, of
}

// item is one distinct row's value of the feature a split search sorts by.
type item struct {
	v float64
	r int32
}

func byValue(a, b item) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return 0
}

type builder struct {
	cfg  Config
	rows [][]float64 // the distinct training rows
	rng  *sim.RNG
	mtry int
	nf   int
	// weight[r*Classes+c] counts the current tree's bootstrap draws of
	// distinct row r with label c.
	weight []int
	items  []item // the split search's scratch, one per distinct row
	nodes  []Node
}

// drawn returns distinct row r's per-class draw counts.
func (b *builder) drawn(r int32) []int {
	c := b.cfg.Classes
	return b.weight[int(r)*c : int(r)*c+c]
}

// majority returns the most common label of a count histogram.
func majority(counts []int) int32 {
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

// build grows the subtree over the distinct rows held, each drawn at least
// once, and returns its node index. It reorders held.
func (b *builder) build(held []int32, depth int) int32 {
	counts := make([]int, b.cfg.Classes)
	for _, r := range held {
		for c, w := range b.drawn(r) {
			counts[c] += w
		}
	}
	n := 0
	for _, w := range counts {
		n += w
	}
	leaf := func() int32 {
		b.nodes = append(b.nodes, Node{Feature: -1, Class: majority(counts)})
		return int32(len(b.nodes) - 1)
	}
	if depth >= b.cfg.MaxDepth || n < 2*b.cfg.MinSamplesLeaf || pure(counts) {
		return leaf()
	}

	// Pick mtry random features and find the best gini split. A boundary
	// lies between two distinct values; the draws on each side are summed
	// from the rows' counts.
	parentGini := gini(counts, n)
	bestFeat, bestThr, bestGain := -1, 0.0, 1e-12
	feats := b.rng.Perm(b.nf)[:b.mtry]
	items := b.items[:len(held)]
	left := make([]int, b.cfg.Classes)
	right := make([]int, b.cfg.Classes)
	for _, feat := range feats {
		for k, r := range held {
			items[k] = item{v: b.rows[r][feat], r: r}
		}
		slices.SortFunc(items, byValue)
		clear(left)
		copy(right, counts)
		nl := 0
		for k := 0; k < len(items)-1; k++ {
			for c, w := range b.drawn(items[k].r) {
				left[c] += w
				right[c] -= w
				nl += w
			}
			if items[k].v == items[k+1].v {
				continue
			}
			nr := n - nl
			if nl < b.cfg.MinSamplesLeaf || nr < b.cfg.MinSamplesLeaf {
				continue
			}
			w := (float64(nl)*gini(left, nl) + float64(nr)*gini(right, nr)) / float64(n)
			if gain := parentGini - w; gain > bestGain {
				bestGain = gain
				bestFeat = feat
				bestThr = (items[k].v + items[k+1].v) / 2
			}
		}
	}
	if bestFeat < 0 {
		return leaf()
	}

	// Partition in place: the rows at or below the threshold first.
	m := 0
	for k, r := range held {
		if b.rows[r][bestFeat] <= bestThr {
			held[m], held[k] = held[k], held[m]
			m++
		}
	}
	if m == 0 || m == len(held) {
		return leaf()
	}
	self := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Feature: int32(bestFeat), Threshold: bestThr})
	l := b.build(held[:m], depth+1)
	r := b.build(held[m:], depth+1)
	b.nodes[self].Left = l
	b.nodes[self].Right = r
	return self
}
