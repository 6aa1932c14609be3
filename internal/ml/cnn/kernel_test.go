package cnn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
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
// Train and once through the per-row oracle fit, and wants the same bytes.
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
	sameWeights(t, got, want)
}

// TestFitMatchesPerRowOracle fits on 1, 2 and 3 workers and wants the
// per-row oracle's weights and loss curve bit for bit, on the training
// architecture and on random geometries. 129 rows make a last batch of
// one row at the default batch size, fewer than the workers.
func TestFitMatchesPerRowOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	cfgs := []Config{{Conv1Filters: 8, Conv2Filters: 16, Hidden: 48, Classes: 2, Inputs: 26, Epochs: 2, Seed: 46}}
	for len(cfgs) < 7 {
		cfg := randomNetwork(t, rng).Cfg
		cfg.Epochs = 2
		if len(cfgs)%2 == 0 {
			cfg.BatchSize = 1 + rng.Intn(20)
		}
		cfgs = append(cfgs, cfg)
	}
	for _, cfg := range cfgs {
		xs, ys := trainingRows(rng, 129, cfg.Inputs, cfg.Classes)
		want, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantRes := oracleFit(want, xs, ys)
		t.Logf("cfg %+v", want.Cfg)
		for _, workers := range []int{1, 2, 3} {
			got, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := got.fit(xs, ys, workers)
			t.Logf("%d workers", workers)
			sameWeights(t, got, want)
			for e, l := range wantRes.EpochLoss {
				if math.Float64bits(res.EpochLoss[e]) != math.Float64bits(l) {
					t.Fatalf("epoch %d loss = %v, oracle %v", e, res.EpochLoss[e], l)
				}
			}
		}
	}
}

// trainingRows draws labelled rows with what the fit's skips meet: exact
// repeats, rows of zeros and columns that sit at zero.
func trainingRows(rng *rand.Rand, rows, inputs, classes int) ([][]float64, []int) {
	xs := make([][]float64, rows)
	ys := make([]int, rows)
	for i := range xs {
		ys[i] = rng.Intn(classes)
		switch {
		case i > 0 && rng.Intn(8) == 0:
			xs[i] = xs[rng.Intn(i)]
			continue
		case rng.Intn(16) == 0:
			xs[i] = make([]float64, inputs)
			continue
		}
		xs[i] = make([]float64, inputs)
		for j := range xs[i] {
			if rng.Intn(4) > 0 {
				xs[i][j] = rng.NormFloat64() + float64(ys[i])
			}
		}
	}
	return xs, ys
}

// sameWeights compares every weight and bias of two networks bit for bit.
func sameWeights(t *testing.T, got, want *Network) {
	t.Helper()
	for name, pair := range map[string][2][][]float64{
		"W1": {got.W1, want.W1}, "W2": {got.W2, want.W2}, "W3": {got.W3, want.W3}, "W4": {got.W4, want.W4},
		"B": {{got.B1, got.B2, got.B3, got.B4}, {want.B1, want.B2, want.B3, want.B4}},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s has %d rows, want %d", name, len(pair[0]), len(pair[1]))
		}
		for r := range pair[1] {
			if len(pair[0][r]) != len(pair[1][r]) {
				t.Fatalf("%s[%d] has %d columns, want %d", name, r, len(pair[0][r]), len(pair[1][r]))
			}
			for i := range pair[1][r] {
				if math.Float64bits(pair[0][r][i]) != math.Float64bits(pair[1][r][i]) {
					t.Fatalf("%s[%d][%d] = %v, want %v", name, r, i, pair[0][r][i], pair[1][r][i])
				}
			}
		}
	}
}

// oracleFit is fit's schedule with oracleForward as the forward pass and
// backward adding each row's gradient in turn.
func oracleFit(n *Network, xs [][]float64, ys []int) TrainResult {
	cfg := n.Cfg
	rng := sim.Substream(cfg.Seed, "cnn/train")
	g, vel := newGrads(n), newGrads(n)
	var a activations
	var scratch bwScratch
	var res TrainResult
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var lossSum float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			batch := order[start:min(start+cfg.BatchSize, len(order))]
			g.zero()
			for _, idx := range batch {
				oracleForward(n, xs[idx], &a)
				lossSum += -math.Log(a.prob[ys[idx]] + 1e-12)
				n.backward(&a, ys[idx], g, &scratch)
			}
			n.step(g, vel, float64(len(batch)))
		}
		res.EpochLoss = append(res.EpochLoss, lossSum/float64(len(order)))
	}
	return res
}

func (g *grads) zero() {
	z2 := func(m [][]float64) {
		for i := range m {
			for j := range m[i] {
				m[i][j] = 0
			}
		}
	}
	z1 := func(v []float64) {
		for i := range v {
			v[i] = 0
		}
	}
	z2(g.w1)
	z1(g.b1)
	z2(g.w2)
	z1(g.b2)
	z2(g.w3)
	z1(g.b3)
	z2(g.w4)
	z1(g.b4)
}

// backward is the per-row backward pass the minibatch fit replaced, kept
// as the oracle its gradient is compared against bit for bit: it adds the
// gradients of the cross-entropy loss at (a, y) into g.
func (n *Network) backward(a *activations, y int, g *grads, scratch *bwScratch) {
	c := n.Cfg
	// Output layer: dlogit = prob - onehot.
	dout := growv(scratch.dout, c.Classes)
	for o := range dout {
		dout[o] = a.prob[o]
		if o == y {
			dout[o]--
		}
	}
	dhid := growv(scratch.dhid, c.Hidden)
	for h := range dhid {
		dhid[h] = 0
	}
	for o := 0; o < c.Classes; o++ {
		d := dout[o]
		g.b4[o] += d
		w := n.W4[o]
		gw := g.w4[o]
		for h := 0; h < c.Hidden; h++ {
			gw[h] += d * a.hid[h]
			dhid[h] += w[h] * d
		}
	}
	// Hidden ReLU gate.
	for h := 0; h < c.Hidden; h++ {
		if a.hid[h] <= 0 {
			dhid[h] = 0
		}
	}
	// Dense layer.
	dflat := growv(scratch.dflat, n.flat)
	for j := range dflat {
		dflat[j] = 0
	}
	for h := 0; h < c.Hidden; h++ {
		d := dhid[h]
		if d == 0 {
			continue
		}
		g.b3[h] += d
		w := n.W3[h]
		gw := g.w3[h]
		for j := 0; j < n.flat; j++ {
			gw[j] += d * a.flat[j]
			dflat[j] += w[j] * d
		}
	}
	// Unflatten + pool2 backward + conv2 ReLU gate.
	dconv2 := grow2(scratch.dconv2, c.Conv2Filters, n.len2)
	for f := range dconv2 {
		for i := range dconv2[f] {
			dconv2[f][i] = 0
		}
	}
	fi := 0
	for f := 0; f < c.Conv2Filters; f++ {
		for i := 0; i < n.pool2; i++ {
			d := dflat[fi]
			fi++
			src := a.arg2[f][i]
			if a.conv2[f][src] > 0 {
				dconv2[f][src] += d
			}
		}
	}
	// conv2 backward.
	dpool1 := grow2(scratch.dpool1, c.Conv1Filters, n.pool1)
	for f := range dpool1 {
		for i := range dpool1[f] {
			dpool1[f][i] = 0
		}
	}
	for f := 0; f < c.Conv2Filters; f++ {
		w := n.W2[f]
		gw := g.w2[f]
		for i := 0; i < n.len2; i++ {
			d := dconv2[f][i]
			if d == 0 {
				continue
			}
			g.b2[f] += d
			wi := 0
			for ch := 0; ch < c.Conv1Filters; ch++ {
				row := a.pool1[ch]
				drow := dpool1[ch]
				for k := 0; k < c.Kernel; k++ {
					gw[wi] += d * row[i+k]
					drow[i+k] += w[wi] * d
					wi++
				}
			}
		}
	}
	// pool1 backward + conv1 ReLU gate + conv1 weight grads.
	for ch := 0; ch < c.Conv1Filters; ch++ {
		gw := g.w1[ch]
		for i := 0; i < n.pool1; i++ {
			d := dpool1[ch][i]
			if d == 0 {
				continue
			}
			src := a.arg1[ch][i]
			if a.conv1[ch][src] <= 0 {
				continue
			}
			g.b1[ch] += d
			for k := 0; k < c.Kernel; k++ {
				gw[k] += d * a.in[src+k]
			}
		}
	}
}

type bwScratch struct {
	dout, dhid, dflat []float64
	dconv2, dpool1    [][]float64
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

// fitBench is one epoch of the training architecture over 4 800 blob
// rows.
func fitBench() (Config, [][]float64, []int) {
	xs, ys := mltest.Blobs(4800, 26, 2, 3)
	return Config{Inputs: 26, Conv1Filters: 8, Conv2Filters: 16, Hidden: 48, Epochs: 1, Seed: 3}, xs, ys
}

// BenchmarkFit reports fitBench's epoch on one worker and on GOMAXPROCS.
func BenchmarkFit(b *testing.B) {
	cfg, xs, ys := fitBench()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				n.fit(xs, ys, workers)
			}
		})
	}
}

// BenchmarkOracleFit is fitBench's epoch through the per-row oracle.
func BenchmarkOracleFit(b *testing.B) {
	cfg, xs, ys := fitBench()
	for i := 0; i < b.N; i++ {
		n, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		oracleFit(n, xs, ys)
	}
}
