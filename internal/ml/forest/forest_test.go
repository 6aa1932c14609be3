package forest

import (
	"bytes"
	"encoding/gob"
	"math"
	"sort"
	"strings"
	"testing"

	"ddoshield/internal/ml/mltest"
	"ddoshield/internal/sim"
)

// oracleTrain is the per-row builder Train replaced, kept as the reference
// its forests are compared against byte for byte: every bootstrap draw is a
// row of its own, and every node sorts all of its rows per feature.
func oracleTrain(cfg Config, xs [][]float64, ys []int) *Forest {
	cfg = cfg.withDefaults()
	nf := len(xs[0])
	mtry := cfg.FeaturesPerSplit
	if mtry <= 0 {
		mtry = max(int(math.Sqrt(float64(nf))), 1)
	}
	mtry = min(mtry, nf)
	f := &Forest{Cfg: cfg, Features: nf}
	rng := sim.Substream(cfg.Seed, "forest")
	for i := 0; i < cfg.Trees; i++ {
		idx := make([]int, len(xs))
		for j := range idx {
			idx[j] = rng.Intn(len(xs))
		}
		b := &oracleBuilder{cfg: cfg, xs: xs, ys: ys, rng: rng, mtry: mtry, nf: nf}
		b.build(idx, 0)
		f.TreeList = append(f.TreeList, &Tree{Nodes: b.nodes})
	}
	return f
}

type oracleBuilder struct {
	cfg   Config
	xs    [][]float64
	ys    []int
	rng   *sim.RNG
	mtry  int
	nf    int
	nodes []Node
}

func (b *oracleBuilder) build(idx []int, depth int) int32 {
	counts := make([]int, b.cfg.Classes)
	for _, i := range idx {
		counts[b.ys[i]]++
	}
	leaf := func() int32 {
		b.nodes = append(b.nodes, Node{Feature: -1, Class: majority(counts)})
		return int32(len(b.nodes) - 1)
	}
	if depth >= b.cfg.MaxDepth || len(idx) < 2*b.cfg.MinSamplesLeaf || pure(counts) {
		return leaf()
	}
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

// windowRows mimics a collected corpus's window-statistics block: n rows
// over windows distinct vectors, every row of a window the same vector
// and its labels mostly the window's.
func windowRows(n, windows, nf int, seed int64) ([][]float64, []int) {
	rng := sim.NewRNG(seed)
	stats := make([][]float64, windows)
	lean := make([]float64, windows)
	for w := range stats {
		stats[w] = make([]float64, nf)
		for j := range stats[w] {
			stats[w][j] = float64(rng.Intn(50)) / 4
		}
		lean[w] = rng.Uniform(0, 1)
	}
	xs := make([][]float64, n)
	ys := make([]int, n)
	for i := range xs {
		w := i * windows / n
		xs[i] = stats[w]
		if rng.Bool(lean[w]) {
			ys[i] = 1
		}
	}
	return xs, ys
}

// tiedRows draws every feature from a handful of values, -0 and +0 among
// them, so that splits land between ties and beside both zeros.
func tiedRows(n, nf int, seed int64) ([][]float64, []int) {
	vals := []float64{-1, math.Copysign(0, -1), 0, 0.5, 1}
	rng := sim.NewRNG(seed)
	xs := make([][]float64, n)
	ys := make([]int, n)
	for i := range xs {
		xs[i] = make([]float64, nf)
		for j := range xs[i] {
			xs[i][j] = vals[rng.Intn(len(vals))]
		}
		if xs[i][0] > 0 || (xs[i][1] == 0 && rng.Intn(4) == 0) {
			ys[i] = 1
		}
	}
	return xs, ys
}

func gobBytes(t *testing.T, f *Forest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainMatchesPerRowOracle: growing on weighted distinct rows gives
// the bytes of the forest the per-row builder grows, on duplicates, on
// all-distinct rows, on ties and signed zeros, and with a wider leaf and a
// third class.
func TestTrainMatchesPerRowOracle(t *testing.T) {
	window, windowY := windowRows(3000, 40, 16, 1)
	blobs, blobsY := mltest.Blobs(800, 6, 1, 2)
	tied, tiedY := tiedRows(600, 5, 3)
	three, threeY := mltest.Blobs(900, 4, 1.5, 4)
	for i := range threeY {
		threeY[i] = i % 3
	}
	cases := []struct {
		name string
		cfg  Config
		xs   [][]float64
		ys   []int
	}{
		{"window-duplicates", Config{Trees: 12, MaxDepth: 18, MinSamplesLeaf: 1, Seed: 11}, window, windowY},
		{"all-distinct", Config{Trees: 8, MaxDepth: 18, MinSamplesLeaf: 1, Seed: 12}, blobs, blobsY},
		{"ties-and-zeros", Config{Trees: 12, MinSamplesLeaf: 1, FeaturesPerSplit: 2, Seed: 13}, tied, tiedY},
		{"leaf3-classes3", Config{Trees: 8, MinSamplesLeaf: 3, Classes: 3, Seed: 14}, three, threeY},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Train(tc.cfg, tc.xs, tc.ys)
			if err != nil {
				t.Fatal(err)
			}
			if got.NumNodes() <= tc.cfg.Trees {
				t.Fatalf("%d nodes over %d trees: nothing split", got.NumNodes(), tc.cfg.Trees)
			}
			want := oracleTrain(tc.cfg, tc.xs, tc.ys)
			if !bytes.Equal(gobBytes(t, got), gobBytes(t, want)) {
				t.Fatalf("forest differs from the per-row oracle's (%d vs %d nodes)", got.NumNodes(), want.NumNodes())
			}
		})
	}
}

// TestTrainRejectsNonFinite: a NaN or infinite feature has no place in a
// sorted split search; Train names its row and column.
func TestTrainRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		xs := [][]float64{{1, 2}, {3, 4}, {5, v}, {7, 8}}
		_, err := Train(Config{Trees: 1, Seed: 1}, xs, []int{0, 1, 0, 1})
		if err == nil || !strings.Contains(err.Error(), "row 2 column 1") {
			t.Fatalf("feature %v: err = %v, want one naming row 2 column 1", v, err)
		}
	}
}

// BenchmarkTrainAllDistinct fits the paper's RF trees (10 of its 60) on
// 24 000 all-distinct rows of 16 features, where grouping rows saves
// nothing: Train against the per-row oracle.
func BenchmarkTrainAllDistinct(b *testing.B) {
	xs, ys := mltest.Blobs(24000, 16, 0.5, 5)
	cfg := Config{Trees: 10, MaxDepth: 18, MinSamplesLeaf: 1, Seed: 53}
	b.Run("distinct-rows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Train(cfg, xs, ys); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-row-oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oracleTrain(cfg, xs, ys)
		}
	})
}

func TestForestLearnsBlobs(t *testing.T) {
	xs, ys := mltest.Blobs(600, 6, 3, 1)
	f, err := Train(Config{Trees: 20, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := mltest.Blobs(200, 6, 3, 2)
	if acc := mltest.Accuracy(f.Predict, testX, testY); acc < 0.95 {
		t.Fatalf("blob accuracy = %.3f", acc)
	}
}

func TestForestLearnsXOR(t *testing.T) {
	xs, ys := mltest.XOR(800, 3)
	f, err := Train(Config{Trees: 25, MaxDepth: 8, Seed: 2}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := mltest.XOR(300, 4)
	if acc := mltest.Accuracy(f.Predict, testX, testY); acc < 0.95 {
		t.Fatalf("XOR accuracy = %.3f (trees must beat linear boundary)", acc)
	}
}

func TestForestRejectsBadInput(t *testing.T) {
	if _, err := Train(Config{}, nil, nil); err == nil {
		t.Fatal("accepted empty training set")
	}
	if _, err := Train(Config{}, [][]float64{{1}}, []int{0, 1}); err == nil {
		t.Fatal("accepted mismatched labels")
	}
	if _, err := Train(Config{}, [][]float64{{1, 2}, {3}}, []int{0, 1}); err == nil {
		t.Fatal("accepted a short row")
	}
	if _, err := Train(Config{}, [][]float64{{1}, {2}}, []int{0, 2}); err == nil {
		t.Fatal("accepted a label past Classes")
	}
}

func TestForestDeterministic(t *testing.T) {
	xs, ys := mltest.Blobs(200, 4, 2, 5)
	f1, err := Train(Config{Trees: 5, Seed: 9}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Train(Config{Trees: 5, Seed: 9}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if f1.NumNodes() != f2.NumNodes() {
		t.Fatal("same-seed forests differ")
	}
	probe := make([]float64, 4)
	for i := 0; i < 4; i++ {
		probe[i] = 0.3
	}
	if f1.Predict(probe) != f2.Predict(probe) {
		t.Fatal("same-seed predictions differ")
	}
}

func TestMaxDepthRespected(t *testing.T) {
	xs, ys := mltest.XOR(500, 6)
	f, err := Train(Config{Trees: 3, MaxDepth: 4, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range f.TreeList {
		if d := tree.Depth(); d > 5 { // depth counts nodes: 4 splits + leaf
			t.Fatalf("tree depth %d exceeds max", d)
		}
	}
}

func TestPureNodeBecomesLeaf(t *testing.T) {
	// Single-class data: the tree must be a single leaf.
	xs := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	ys := []int{1, 1, 1, 1}
	f, err := Train(Config{Trees: 1, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.TreeList[0].Nodes) != 1 {
		t.Fatalf("pure tree has %d nodes", len(f.TreeList[0].Nodes))
	}
	if f.Predict([]float64{0, 0}) != 1 {
		t.Fatal("pure tree mispredicts")
	}
}

func TestMemoryBytesScalesWithNodes(t *testing.T) {
	xs, ys := mltest.Blobs(400, 4, 1, 7) // overlapping: bigger trees
	small, err := Train(Config{Trees: 2, MaxDepth: 3, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Train(Config{Trees: 40, MaxDepth: 12, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if small.MemoryBytes() >= big.MemoryBytes() {
		t.Fatalf("memory: small=%d big=%d", small.MemoryBytes(), big.MemoryBytes())
	}
	if small.Name() != "rf" {
		t.Fatal("Name()")
	}
}

func TestPredictAllocFree(t *testing.T) {
	xs, ys := mltest.Blobs(300, 6, 3, 7)
	f, err := Train(Config{Trees: 10, Seed: 7}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { f.Predict(xs[0]) }); a != 0 {
		t.Fatalf("Predict: %v allocs/op, want 0", a)
	}
	// More classes than the stack tally holds still vote correctly.
	wide, wideY := mltest.Blobs(600, 6, 12, 8)
	wf, err := Train(Config{Trees: 15, Classes: 12, Seed: 8}, wide, wideY)
	if err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(wf.Predict, wide, wideY); acc < 0.9 {
		t.Fatalf("12-class training accuracy = %.3f", acc)
	}
}
