package cnn

import (
	"fmt"
	"math"

	"ddoshield/internal/sim"
)

// grads mirrors the weight tensors for accumulation.
type grads struct {
	w1 [][]float64
	b1 []float64
	w2 [][]float64
	b2 []float64
	w3 [][]float64
	b3 []float64
	w4 [][]float64
	b4 []float64
}

func newGrads(n *Network) *grads {
	like := func(m [][]float64) [][]float64 {
		out := make([][]float64, len(m))
		for i := range m {
			out[i] = make([]float64, len(m[i]))
		}
		return out
	}
	return &grads{
		w1: like(n.W1), b1: make([]float64, len(n.B1)),
		w2: like(n.W2), b2: make([]float64, len(n.B2)),
		w3: like(n.W3), b3: make([]float64, len(n.B3)),
		w4: like(n.W4), b4: make([]float64, len(n.B4)),
	}
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

// backward accumulates gradients of the cross-entropy loss at (a, y).
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

// TrainResult summarizes a training run.
type TrainResult struct {
	// EpochLoss is the mean cross-entropy per epoch.
	EpochLoss []float64
	// FinalAccuracy is the training-set accuracy after the last epoch.
	FinalAccuracy float64
}

// Train fits the network on rows xs with labels ys using mini-batch SGD
// with momentum, and returns the per-epoch loss curve.
func Train(cfg Config, xs [][]float64, ys []int) (*Network, TrainResult, error) {
	if len(xs) == 0 {
		return nil, TrainResult{}, fmt.Errorf("cnn: empty training set")
	}
	if len(xs) != len(ys) {
		return nil, TrainResult{}, fmt.Errorf("cnn: %d rows vs %d labels", len(xs), len(ys))
	}
	cfg.Inputs = len(xs[0])
	n, err := New(cfg)
	if err != nil {
		return nil, TrainResult{}, err
	}
	res, err := n.fit(xs, ys)
	return n, res, err
}

// fit runs the configured SGD schedule on a freshly initialised network.
func (n *Network) fit(xs [][]float64, ys []int) (TrainResult, error) {
	cfg := n.Cfg
	rng := sim.Substream(cfg.Seed, "cnn/train")
	g := newGrads(n)
	vel := newGrads(n)
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
		var seen int
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			g.zero()
			for _, idx := range batch {
				n.forward(xs[idx], &a, cfg.Inputs)
				p := a.prob[ys[idx]]
				lossSum += -math.Log(p + 1e-12)
				seen++
				n.backward(&a, ys[idx], g, &scratch)
			}
			n.step(g, vel, float64(len(batch)))
		}
		res.EpochLoss = append(res.EpochLoss, lossSum/float64(seen))
	}
	correct := 0
	for i := range xs {
		if n.Predict(xs[i]) == ys[i] {
			correct++
		}
	}
	res.FinalAccuracy = float64(correct) / float64(len(xs))
	return res, nil
}

// step applies one momentum-SGD update from accumulated gradients.
func (n *Network) step(g, vel *grads, batch float64) {
	lr, mu := n.Cfg.LearningRate, n.Cfg.Momentum
	upd2 := func(w, gw, vw [][]float64) {
		for i := range w {
			for j := range w[i] {
				vw[i][j] = mu*vw[i][j] - lr*gw[i][j]/batch
				w[i][j] += vw[i][j]
			}
		}
	}
	upd1 := func(w, gw, vw []float64) {
		for i := range w {
			vw[i] = mu*vw[i] - lr*gw[i]/batch
			w[i] += vw[i]
		}
	}
	upd2(n.W1, g.w1, vel.w1)
	upd1(n.B1, g.b1, vel.b1)
	upd2(n.W2, g.w2, vel.w2)
	upd1(n.B2, g.b2, vel.b2)
	upd2(n.W3, g.w3, vel.w3)
	upd1(n.B3, g.b3, vel.b3)
	upd2(n.W4, g.w4, vel.w4)
	upd1(n.B4, g.b4, vel.b4)
}

// Rebind recomputes derived geometry after gob decoding (gob only restores
// exported fields).
func (n *Network) Rebind() { n.geometry() }
