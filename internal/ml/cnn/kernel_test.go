package cnn

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ddoshield/internal/ml/mltest"
	"ddoshield/internal/sim"
)

// oracleForward is the loop nest forward replaced, kept as the reference
// every kernel result is compared against bit for bit: one accumulator per
// output, every sum in index order, everything recomputed.
func oracleForward(n *Network, x []float64, a *activations) {
	c := n.Cfg
	a.in = x
	a.conv1 = grow2(a.conv1, c.Conv1Filters, n.len1)
	for f := 0; f < c.Conv1Filters; f++ {
		w := n.W1[f]
		for i := 0; i < n.len1; i++ {
			s := n.B1[f]
			for k := 0; k < c.Kernel; k++ {
				s += w[k] * x[i+k]
			}
			a.conv1[f][i] = relu(s)
		}
	}
	a.pool1, a.arg1 = maxpool(a.conv1, a.pool1, a.arg1, n.pool1, n.pool1)
	a.conv2 = grow2(a.conv2, c.Conv2Filters, n.len2)
	for f := 0; f < c.Conv2Filters; f++ {
		w := n.W2[f]
		for i := 0; i < n.len2; i++ {
			s := n.B2[f]
			wi := 0
			for ch := 0; ch < c.Conv1Filters; ch++ {
				row := a.pool1[ch]
				for k := 0; k < c.Kernel; k++ {
					s += w[wi] * row[i+k]
					wi++
				}
			}
			a.conv2[f][i] = relu(s)
		}
	}
	a.pool2, a.arg2 = maxpool(a.conv2, a.pool2, a.arg2, n.pool2, n.pool2)
	a.flat = growv(a.flat, n.flat)
	fi := 0
	for f := 0; f < c.Conv2Filters; f++ {
		for i := 0; i < n.pool2; i++ {
			a.flat[fi] = a.pool2[f][i]
			fi++
		}
	}
	a.hid = growv(a.hid, c.Hidden)
	for h := 0; h < c.Hidden; h++ {
		s := n.B3[h]
		w := n.W3[h]
		for j, v := range a.flat {
			s += w[j] * v
		}
		a.hid[h] = relu(s)
	}
	a.out = growv(a.out, c.Classes)
	maxLogit := math.Inf(-1)
	for o := 0; o < c.Classes; o++ {
		s := n.B4[o]
		w := n.W4[o]
		for h, v := range a.hid {
			s += w[h] * v
		}
		a.out[o] = s
		if s > maxLogit {
			maxLogit = s
		}
	}
	a.prob = growv(a.prob, c.Classes)
	var z float64
	for o, s := range a.out {
		e := math.Exp(s - maxLogit)
		a.prob[o] = e
		z += e
	}
	for o := range a.prob {
		a.prob[o] /= z
	}
}

// sameActivations compares every layer bit for bit.
func sameActivations(t *testing.T, what string, got, want *activations) {
	t.Helper()
	bits2 := func(name string, g, w [][]float64) {
		if len(g) != len(w) {
			t.Fatalf("%s: %s has %d rows, oracle %d", what, name, len(g), len(w))
		}
		for r := range w {
			if len(g[r]) != len(w[r]) {
				t.Fatalf("%s: %s[%d] has %d columns, oracle %d", what, name, r, len(g[r]), len(w[r]))
			}
			for i := range w[r] {
				if math.Float64bits(g[r][i]) != math.Float64bits(w[r][i]) {
					t.Fatalf("%s: %s[%d][%d] = %v, oracle %v", what, name, r, i, g[r][i], w[r][i])
				}
			}
		}
	}
	bits2("conv1", got.conv1, want.conv1)
	bits2("pool1", got.pool1, want.pool1)
	bits2("conv2", got.conv2, want.conv2)
	bits2("pool2", got.pool2, want.pool2)
	bits2("flat/hid/out/prob",
		[][]float64{got.flat, got.hid, got.out, got.prob},
		[][]float64{want.flat, want.hid, want.out, want.prob})
	if !reflect.DeepEqual(got.arg1, want.arg1) || !reflect.DeepEqual(got.arg2, want.arg2) {
		t.Fatalf("%s: pooling argmaxes differ", what)
	}
}

// randomNetwork draws a geometry off the beaten path (kernel 2/3/5, filter
// and hidden counts mostly not multiples of four, odd conv lengths) with
// nonzero biases and some exactly tied output rows.
func randomNetwork(t *testing.T, rng *rand.Rand) *Network {
	t.Helper()
	kernel := []int{2, 3, 5}[rng.Intn(3)]
	cfg := Config{
		Kernel:       kernel,
		Inputs:       3*kernel + 1 + rng.Intn(24),
		Conv1Filters: 1 + rng.Intn(9),
		Conv2Filters: 1 + rng.Intn(18),
		Hidden:       1 + rng.Intn(50),
		Classes:      2 + rng.Intn(3),
		Seed:         rng.Int63(),
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	for _, b := range [][]float64{n.B1, n.B2, n.B3, n.B4} {
		for i := range b {
			b[i] = rng.NormFloat64() * 0.1
		}
	}
	if rng.Intn(3) == 0 {
		// Two classes with identical weights tie exactly; the lower index
		// must win.
		copy(n.W4[1], n.W4[0])
		n.B4[1] = n.B4[0]
	}
	return n
}

// suffixBatch builds rows whose consecutive members share a random-length
// suffix, from nothing in common to the whole row.
func suffixBatch(rng *rand.Rand, rows, inputs int) [][]float64 {
	xs := make([][]float64, rows)
	for i := range xs {
		xs[i] = make([]float64, inputs)
		keep := 0
		if i > 0 {
			switch rng.Intn(4) {
			case 0:
				keep = 0
			case 1:
				keep = inputs
			default:
				keep = rng.Intn(inputs + 1)
			}
			copy(xs[i][inputs-keep:], xs[i-1][inputs-keep:])
		}
		for j := 0; j < inputs-keep; j++ {
			xs[i][j] = rng.NormFloat64()
		}
	}
	return xs
}

func TestKernelBitIdenticalToOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		n := randomNetwork(t, rng)
		in := n.Cfg.Inputs
		xs := suffixBatch(rng, 1+rng.Intn(12), in)
		// The batch path: one activations value carried from row to row,
		// exactly as PredictBatch drives it.
		var a, want activations
		preds := make([]int, len(xs))
		n.PredictBatch(xs, preds)
		for i, x := range xs {
			changed := in
			if i > 0 {
				changed = changedPrefix(xs[i-1], x)
			}
			n.forward(x, &a, changed)
			oracleForward(n, x, &want)
			sameActivations(t, "batch row", &a, &want)
			if preds[i] != want.class() || n.Predict(x) != want.class() {
				t.Fatalf("trial %d row %d: PredictBatch %d, Predict %d, oracle %d (cfg %+v)",
					trial, i, preds[i], n.Predict(x), want.class(), n.Cfg)
			}
		}
	}
}

func TestSoftmaxTieTakesLowestClass(t *testing.T) {
	n, err := New(Config{Inputs: 16, Classes: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for o := range n.W4 {
		copy(n.W4[o], n.W4[0])
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	out := make([]int, 2)
	n.PredictBatch([][]float64{x, x}, out)
	if n.Predict(x) != 0 || out[0] != 0 || out[1] != 0 {
		t.Fatalf("three-way tie: Predict %d, PredictBatch %v, want class 0", n.Predict(x), out)
	}
}

// TestTrainMatchesOracleForward trains twice on one seed, once through
// forward and once with the oracle in its place, and wants the same bytes.
func TestTrainMatchesOracleForward(t *testing.T) {
	xs, ys := mltest.Blobs(300, 26, 2, 21)
	cfg := Config{Conv1Filters: 8, Conv2Filters: 16, Hidden: 48, Epochs: 3, Seed: 21}
	got, _, err := Train(cfg, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Inputs = len(xs[0])
	want, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracleFit(want, xs, ys)
	for name, pair := range map[string][2][][]float64{
		"W1": {got.W1, want.W1}, "W2": {got.W2, want.W2}, "W3": {got.W3, want.W3}, "W4": {got.W4, want.W4},
		"B": {{got.B1, got.B2, got.B3, got.B4}, {want.B1, want.B2, want.B3, want.B4}},
	} {
		for r := range pair[1] {
			for i := range pair[1][r] {
				if math.Float64bits(pair[0][r][i]) != math.Float64bits(pair[1][r][i]) {
					t.Fatalf("%s[%d][%d] = %v, oracle-trained %v", name, r, i, pair[0][r][i], pair[1][r][i])
				}
			}
		}
	}
}

// oracleFit is fit's schedule with oracleForward as the forward pass.
func oracleFit(n *Network, xs [][]float64, ys []int) {
	cfg := n.Cfg
	rng := sim.Substream(cfg.Seed, "cnn/train")
	g, vel := newGrads(n), newGrads(n)
	var a activations
	var scratch bwScratch
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.BatchSize {
			batch := order[start:min(start+cfg.BatchSize, len(order))]
			g.zero()
			for _, idx := range batch {
				oracleForward(n, xs[idx], &a)
				n.backward(&a, ys[idx], g, &scratch)
			}
			n.step(g, vel, float64(len(batch)))
		}
	}
}

func TestConcurrentPredictSharedNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, err := New(Config{Inputs: 26, Conv1Filters: 8, Conv2Filters: 16, Hidden: 48, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	xs := suffixBatch(rng, 64, 26)
	want := make([]int, len(xs))
	for i, x := range xs {
		want[i] = n.Predict(x)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(batch bool) {
			defer wg.Done()
			got := make([]int, len(xs))
			for rep := 0; rep < 20; rep++ {
				if batch {
					n.PredictBatch(xs, got)
				} else {
					for i, x := range xs {
						got[i] = n.Predict(x)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent verdicts diverged (batch=%v)", batch)
					return
				}
			}
		}(g%2 == 0)
	}
	wg.Wait()
}

var sink int

func benchNetwork(b *testing.B) (*Network, [][]float64) {
	n, err := New(Config{Inputs: 26, Conv1Filters: 8, Conv2Filters: 16, Hidden: 48, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// An IDS window: ten per-packet columns vary, sixteen window columns
	// are shared.
	xs := make([][]float64, 64)
	tail := make([]float64, 16)
	for i := range tail {
		tail[i] = rng.NormFloat64()
	}
	for i := range xs {
		xs[i] = make([]float64, 26)
		for j := 0; j < 10; j++ {
			xs[i][j] = rng.NormFloat64()
		}
		copy(xs[i][10:], tail)
	}
	return n, xs
}

func BenchmarkPredict(b *testing.B) {
	n, xs := benchNetwork(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += n.Predict(xs[i%len(xs)])
	}
}

func BenchmarkOraclePredict(b *testing.B) {
	n, xs := benchNetwork(b)
	var a activations
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracleForward(n, xs[i%len(xs)], &a)
		sink += a.class()
	}
}

// BenchmarkPredictBatch reports ns per row of a 64-row window chunk.
func BenchmarkPredictBatch(b *testing.B) {
	n, xs := benchNetwork(b)
	out := make([]int, len(xs))
	b.ResetTimer()
	for i := 0; i < b.N; i += len(xs) {
		n.PredictBatch(xs, out)
	}
}
