package cnn

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"ddoshield/internal/sim"
)

// grads mirrors the weight tensors: a batch's gradient, or the momentum.
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

// TrainResult summarizes a training run.
type TrainResult struct {
	// EpochLoss is the mean cross-entropy per epoch.
	EpochLoss []float64
}

// Train fits the network on rows xs with labels ys using mini-batch SGD
// (with momentum when cfg.Momentum is set), and returns the per-epoch loss
// curve.
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
	return n, n.fit(xs, ys, runtime.GOMAXPROCS(0)), nil
}

// fit runs the configured SGD schedule on a freshly initialised network,
// computing each batch's gradient on up to workers goroutines.
func (n *Network) fit(xs [][]float64, ys []int, workers int) TrainResult {
	cfg := n.Cfg
	rng := sim.Substream(cfg.Seed, "cnn/train")
	m := newMinibatch(n, workers)
	vel := newGrads(n)
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
			m.gradient(xs, ys, batch)
			for r, idx := range batch {
				p := m.rows[r].a.prob[ys[idx]]
				lossSum += -math.Log(p + 1e-12)
			}
			n.step(m.g, vel, float64(len(batch)))
		}
		res.EpochLoss = append(res.EpochLoss, lossSum/float64(len(order)))
	}
	return res
}

// minibatch computes a batch's loss gradient in two phases. The row phase
// runs each row's forward pass and backward deltas into that row's
// buffers. The accumulate phase then sums each gradient element's terms
// over the rows in batch order: exactly the additions, in the order, that
// the per-row backward pass made (kernel_test.go keeps it as the oracle).
// Each phase splits its work across goroutines, rows in the first and
// weight rows in the second. No element is summed by two of them, so the
// gradient has the same bits at any worker count.
type minibatch struct {
	n       *Network
	g       *grads
	rows    []rowBuf // one per batch row, reused from batch to batch
	terms   [][]term // one scratch list per worker
	workers int
	// pool1At[ch·kernel+k] is where conv2's weight ch·kernel+k sends its
	// delta in a column's dpool1: ch·pool1+k past the column.
	pool1At []int
}

// rowBuf is one batch row: its forward pass, and the loss's derivatives
// with respect to each layer's output. dpool1 is [f1][pool1] flattened.
type rowBuf struct {
	a                         activations
	dout, dhid, dflat, dpool1 []float64
	dconv2                    [][]float64
}

// term is one addend of a weight row's gradient: a delta, and the input x
// the weight row saw, x[j] for weight j.
type term struct {
	d float64
	x []float64
}

func newMinibatch(n *Network, workers int) *minibatch {
	c := n.Cfg
	workers = max(1, min(workers, c.BatchSize))
	m := &minibatch{
		n: n, g: newGrads(n), workers: workers,
		rows:  make([]rowBuf, c.BatchSize),
		terms: make([][]term, workers),
	}
	for ch := 0; ch < c.Conv1Filters; ch++ {
		for k := 0; k < c.Kernel; k++ {
			m.pool1At = append(m.pool1At, ch*n.pool1+k)
		}
	}
	return m
}

// gradient sets m.g to the loss gradient summed over the rows xs[i] with
// labels ys[i], i in batch, on min(m.workers, len(batch)) goroutines.
func (m *minibatch) gradient(xs [][]float64, ys []int, batch []int) {
	workers := min(m.workers, len(batch))
	rows := m.rows[:len(batch)]
	parallel(workers, func(w int) {
		lo, hi := span(w, workers, len(rows))
		for r := lo; r < hi; r++ {
			m.deltas(xs[batch[r]], ys[batch[r]], &rows[r], &m.terms[w])
		}
	})
	parallel(workers, func(w int) { m.accumulate(rows, w, workers) })
}

// parallel runs fn(0) … fn(workers-1), fn(0) on the caller and the rest
// on a goroutine each, and returns when all are done.
func parallel(workers int, fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	fn(0)
	wg.Wait()
}

// span is worker w's share [lo, hi) of n items split among workers.
func span(w, workers, n int) (lo, hi int) {
	return w * n / workers, (w + 1) * n / workers
}

// deltas runs the forward pass on x into r and backpropagates the loss at
// label y to each layer's output: dout at the logits, dhid at the hidden
// ReLU, dflat at the flattened pool, dconv2 at conv2's ReLU and dpool1 at
// the first pool. terms is scratch.
func (m *minibatch) deltas(x []float64, y int, r *rowBuf, terms *[]term) {
	n := m.n
	c := n.Cfg
	a := &r.a
	n.forward(x, a, c.Inputs)
	// Output layer: dlogit = prob - onehot.
	r.dout = growv(r.dout, c.Classes)
	for o := range r.dout {
		r.dout[o] = a.prob[o]
		if o == y {
			r.dout[o]--
		}
	}
	// dhid[h] = Σ_o W4[o][h]·dout[o], then the hidden ReLU gate.
	ts := (*terms)[:0]
	for o, d := range r.dout {
		ts = append(ts, term{d, n.W4[o]})
	}
	r.dhid = growv(r.dhid, c.Hidden)
	sumTerms(ts, r.dhid)
	for h, v := range a.hid {
		if v <= 0 {
			r.dhid[h] = 0
		}
	}
	// dflat[j] = Σ_h W3[h][j]·dhid[h] over the live hidden units.
	ts = ts[:0]
	for h, d := range r.dhid {
		if d != 0 {
			ts = append(ts, term{d, n.W3[h]})
		}
	}
	r.dflat = growv(r.dflat, n.flat)
	sumTerms(ts, r.dflat)
	*terms = ts
	// Unflatten + pool2 backward + conv2 ReLU gate.
	r.dconv2 = grow2(r.dconv2, c.Conv2Filters, n.len2)
	dconv2 := r.dconv2
	for f := range dconv2 {
		clear(dconv2[f])
	}
	fi := 0
	for f := 0; f < c.Conv2Filters; f++ {
		for i := 0; i < n.pool2; i++ {
			d := r.dflat[fi]
			fi++
			src := a.arg2[f][i]
			if a.conv2[f][src] > 0 {
				dconv2[f][src] += d
			}
		}
	}
	// conv2 backward.
	r.dpool1 = growv(r.dpool1, c.Conv1Filters*n.pool1)
	clear(r.dpool1)
	for f := 0; f < c.Conv2Filters; f++ {
		w := n.W2[f]
		for i := 0; i < n.len2; i++ {
			d := dconv2[f][i]
			if d == 0 {
				continue
			}
			dpool1 := r.dpool1[i:]
			for wi, v := range w {
				dpool1[m.pool1At[wi]] += v * d
			}
		}
	}
}

// accumulate writes worker w's share of each weight tensor's rows, and
// their biases, into m.g from the deltas of rows.
func (m *minibatch) accumulate(rows []rowBuf, w, workers int) {
	n, g := m.n, m.g
	c := n.Cfg
	ts := m.terms[w]
	// Output layer: every row's logit delta, over its hidden activations.
	lo, hi := span(w, workers, c.Classes)
	for o := lo; o < hi; o++ {
		ts = ts[:0]
		for r := range rows {
			ts = append(ts, term{rows[r].dout[o], rows[r].a.hid})
		}
		g.b4[o] = sumTerms(ts, g.w4[o])
	}
	// Dense layer: the rows where unit h is live, over the flattened pool.
	lo, hi = span(w, workers, c.Hidden)
	for h := lo; h < hi; h++ {
		ts = ts[:0]
		for r := range rows {
			if d := rows[r].dhid[h]; d != 0 {
				ts = append(ts, term{d, rows[r].a.flat})
			}
		}
		g.b3[h] = sumTerms(ts, g.w3[h])
	}
	// conv2: each row's nonzero column deltas, over the column's field.
	width := c.Conv1Filters * c.Kernel
	lo, hi = span(w, workers, c.Conv2Filters)
	for f := lo; f < hi; f++ {
		ts = ts[:0]
		for r := range rows {
			b := &rows[r]
			for i, d := range b.dconv2[f] {
				if d != 0 {
					ts = append(ts, term{d, b.a.win2[i*width : (i+1)*width]})
				}
			}
		}
		g.b2[f] = sumTerms(ts, g.w2[f])
	}
	// conv1: each row's nonzero pool1 deltas whose argmax column is live,
	// over that column's field.
	lo, hi = span(w, workers, c.Conv1Filters)
	for ch := lo; ch < hi; ch++ {
		ts = ts[:0]
		for r := range rows {
			b := &rows[r]
			for i, d := range b.dpool1[ch*n.pool1 : (ch+1)*n.pool1] {
				if d == 0 {
					continue
				}
				src := b.a.arg1[ch][i]
				if b.a.conv1[ch][src] > 0 {
					ts = append(ts, term{d, b.a.win1[src*c.Kernel : (src+1)*c.Kernel]})
				}
			}
		}
		g.b1[ch] = sumTerms(ts, g.w1[ch])
	}
	m.terms[w] = ts
}

// sumTerms sets out[j] = Σ_t t.d·t.x[j] and returns Σ_t t.d, every sum
// adding the terms in order, from zero. Four outputs share each pass over
// the terms, as dot4's four rows share one over x: four independent
// chains, each still adding in order.
func sumTerms(ts []term, out []float64) (dsum float64) {
	for _, t := range ts {
		dsum += t.d
	}
	j := 0
	for ; j+4 <= len(out); j += 4 {
		var s0, s1, s2, s3 float64
		for _, t := range ts {
			x := t.x[j : j+4 : j+4]
			s0 += t.d * x[0]
			s1 += t.d * x[1]
			s2 += t.d * x[2]
			s3 += t.d * x[3]
		}
		out[j], out[j+1], out[j+2], out[j+3] = s0, s1, s2, s3
	}
	for ; j < len(out); j++ {
		var s float64
		for _, t := range ts {
			s += t.d * t.x[j]
		}
		out[j] = s
	}
	return dsum
}

// step applies one SGD update from accumulated gradients, with momentum
// unless Momentum is zero.
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
