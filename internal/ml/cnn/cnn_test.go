package cnn

import (
	"math"
	"testing"

	"ddoshield/internal/ml/mltest"
)

func TestCNNLearnsBlobs(t *testing.T) {
	xs, ys := mltest.Blobs(600, 16, 2, 1)
	n, _, err := Train(Config{Epochs: 8, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(n.Predict, xs, ys); acc < 0.95 {
		t.Fatalf("train accuracy = %.3f", acc)
	}
	testX, testY := mltest.Blobs(200, 16, 2, 2)
	if acc := mltest.Accuracy(n.Predict, testX, testY); acc < 0.93 {
		t.Fatalf("test accuracy = %.3f", acc)
	}
}

func TestLossDecreases(t *testing.T) {
	xs, ys := mltest.Blobs(400, 16, 2, 3)
	_, res, err := Train(Config{Epochs: 6, Seed: 3}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.EpochLoss[0], res.EpochLoss[len(res.EpochLoss)-1]
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestProbSumsToOne(t *testing.T) {
	xs, ys := mltest.Blobs(100, 16, 2, 4)
	n, _, err := Train(Config{Epochs: 2, Seed: 4}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	var a activations
	n.forward(xs[0], &a, n.Cfg.Inputs)
	var sum float64
	for _, v := range a.prob {
		if v < 0 || v > 1 {
			t.Fatalf("probability %v out of range", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestCNNRejectsBadInput(t *testing.T) {
	if _, _, err := Train(Config{}, nil, nil); err == nil {
		t.Fatal("accepted empty training set")
	}
	if _, _, err := Train(Config{}, [][]float64{{1, 2}}, []int{0, 1}); err == nil {
		t.Fatal("accepted mismatched labels")
	}
	// Input too short for two conv+pool blocks.
	if _, err := New(Config{Inputs: 4}); err == nil {
		t.Fatal("accepted too-short input")
	}
}

func TestGradientCheck(t *testing.T) {
	// Numerical gradient check on a tiny network: the batched gradient,
	// the loss summed over the batch's rows, must match finite differences.
	cfg := Config{Inputs: 12, Conv1Filters: 2, Conv2Filters: 2, Hidden: 4, Seed: 5}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, 3)
	for r := range xs {
		xs[r] = make([]float64, 12)
		for i := range xs[r] {
			xs[r][i] = math.Sin(float64(i + 5*r))
		}
	}
	ys := []int{1, 0, 1}
	for _, batch := range [][]int{{0}, {2, 0, 1}} {
		loss := func() float64 {
			var a activations
			var sum float64
			for _, r := range batch {
				n.forward(xs[r], &a, cfg.Inputs)
				sum += -math.Log(a.prob[ys[r]] + 1e-12)
			}
			return sum
		}
		m := newMinibatch(n, len(batch))
		m.gradient(xs, ys, batch)
		g := m.g
		check := func(w [][]float64, gw [][]float64, name string) {
			const eps = 1e-6
			// Probe a few entries per tensor.
			for _, probe := range [][2]int{{0, 0}, {1, 0}, {1, 1}} {
				i, j := probe[0], probe[1]
				if i >= len(w) || j >= len(w[i]) {
					continue
				}
				orig := w[i][j]
				w[i][j] = orig + eps
				lp := loss()
				w[i][j] = orig - eps
				lm := loss()
				w[i][j] = orig
				num := (lp - lm) / (2 * eps)
				if math.Abs(num-gw[i][j]) > 1e-4*(1+math.Abs(num)) {
					t.Errorf("%d-row batch: %s[%d][%d]: numerical %v vs backprop %v", len(batch), name, i, j, num, gw[i][j])
				}
			}
		}
		check(n.W1, g.w1, "W1")
		check(n.W2, g.w2, "W2")
		check(n.W3, g.w3, "W3")
		check(n.W4, g.w4, "W4")
		check([][]float64{n.B1, n.B2, n.B3, n.B4}, [][]float64{g.b1, g.b2, g.b3, g.b4}, "B")
	}
}

func TestNumParamsAndMemory(t *testing.T) {
	n, err := New(Config{Inputs: 26, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n.NumParams() < 1000 {
		t.Fatalf("NumParams = %d, implausibly small", n.NumParams())
	}
	if n.MemoryBytes() <= int64(n.NumParams())*8 {
		t.Fatal("MemoryBytes must include activations")
	}
	if n.Name() != "cnn" {
		t.Fatal("Name()")
	}
}

func TestDeterministicTraining(t *testing.T) {
	xs, ys := mltest.Blobs(200, 16, 2, 6)
	n1, _, err := Train(Config{Epochs: 2, Seed: 8}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	n2, _, err := Train(Config{Epochs: 2, Seed: 8}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	sameWeights(t, n1, n2)
}

// TestMomentumDefault pins what the Config comment says: a zero Momentum
// stays zero, so a Config that sets none trains by plain SGD, as every
// product fit does; only a value outside [0, 1) becomes 0.9.
func TestMomentumDefault(t *testing.T) {
	for _, c := range []struct{ set, want float64 }{
		{0, 0}, {0.5, 0.5}, {-0.1, 0.9}, {1, 0.9},
	} {
		if got := (Config{Inputs: 8, Momentum: c.set}).withDefaults().Momentum; got != c.want {
			t.Errorf("Momentum %v becomes %v, want %v", c.set, got, c.want)
		}
	}
	xs, ys := mltest.Blobs(40, 16, 2, 6)
	n, _, err := Train(Config{Epochs: 1, Seed: 8}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if n.Cfg.Momentum != 0 {
		t.Fatalf("a fit with no Momentum set trained with %v", n.Cfg.Momentum)
	}
}
