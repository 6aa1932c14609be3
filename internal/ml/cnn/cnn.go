// Package cnn implements the paper's third detector: a one-dimensional
// convolutional neural network over the aggregated feature vector, with
// convolution, ReLU, max-pooling, dense layers and a softmax head, trained
// by mini-batch SGD on cross-entropy loss, with momentum when the Config
// asks for it — the pure-Go stand-in for the TensorFlow model of §III-B.
package cnn

import (
	"fmt"
	"math"
	"sync"

	"ddoshield/internal/sim"
)

// Config describes the architecture and the training schedule.
type Config struct {
	// Inputs is the feature-vector length (required).
	Inputs int
	// Conv1Filters/Conv2Filters size the two conv blocks (defaults 16/32).
	Conv1Filters int
	Conv2Filters int
	// Kernel is the 1-D convolution width (default 3).
	Kernel int
	// Hidden is the dense layer width (default 64).
	Hidden int
	// Classes is the output width (default 2).
	Classes int
	// Epochs, BatchSize, LearningRate drive SGD (defaults 10, 64, 0.01).
	// Momentum is the velocity's decay per step. Zero, the zero Config's
	// value, trains by plain SGD; only a value outside [0, 1) is replaced,
	// by 0.9.
	Epochs       int
	BatchSize    int
	LearningRate float64
	Momentum     float64
	// Seed drives weight initialization and batch shuffling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Conv1Filters <= 0 {
		c.Conv1Filters = 16
	}
	if c.Conv2Filters <= 0 {
		c.Conv2Filters = 32
	}
	if c.Kernel <= 0 {
		c.Kernel = 3
	}
	if c.Hidden <= 0 {
		c.Hidden = 64
	}
	if c.Classes <= 0 {
		c.Classes = 2
	}
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.01
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		c.Momentum = 0.9
	}
	return c
}

// Network is the trained model. Weight tensors are exported for gob
// serialization; layout is documented per field.
type Network struct {
	Cfg Config
	// W1 [f1][kernel], B1 [f1]: conv1 over the single input channel.
	W1 [][]float64
	B1 []float64
	// W2 [f2][f1*kernel], B2 [f2]: conv2 over f1 channels.
	W2 [][]float64
	B2 []float64
	// W3 [hidden][flat], B3 [hidden]: dense layer.
	W3 [][]float64
	B3 []float64
	// W4 [classes][hidden], B4 [classes]: output layer.
	W4 [][]float64
	B4 []float64

	// Geometry, precomputed at construction.
	len1, pool1, len2, pool2, flat int
}

// Name implements ml.Classifier.
func (n *Network) Name() string { return "cnn" }

// New builds an untrained network with small random weights.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.Inputs <= 0 {
		return nil, fmt.Errorf("cnn: Inputs required")
	}
	n := &Network{Cfg: cfg}
	n.geometry()
	if n.pool2 < 1 {
		return nil, fmt.Errorf("cnn: input length %d too short for architecture", cfg.Inputs)
	}
	rng := sim.Substream(cfg.Seed, "cnn")
	he := func(fanIn int) float64 { return math.Sqrt(2 / float64(fanIn)) }
	mat := func(rows, cols int, scale float64) [][]float64 {
		m := make([][]float64, rows)
		for i := range m {
			m[i] = make([]float64, cols)
			for j := range m[i] {
				m[i][j] = rng.NormFloat64() * scale
			}
		}
		return m
	}
	n.W1 = mat(cfg.Conv1Filters, cfg.Kernel, he(cfg.Kernel))
	n.B1 = make([]float64, cfg.Conv1Filters)
	n.W2 = mat(cfg.Conv2Filters, cfg.Conv1Filters*cfg.Kernel, he(cfg.Conv1Filters*cfg.Kernel))
	n.B2 = make([]float64, cfg.Conv2Filters)
	n.W3 = mat(cfg.Hidden, n.flat, he(n.flat))
	n.B3 = make([]float64, cfg.Hidden)
	n.W4 = mat(cfg.Classes, cfg.Hidden, he(cfg.Hidden))
	n.B4 = make([]float64, cfg.Classes)
	return n, nil
}

// geometry derives layer lengths from the config.
func (n *Network) geometry() {
	c := n.Cfg
	n.len1 = c.Inputs - c.Kernel + 1
	n.pool1 = n.len1 / 2
	n.len2 = n.pool1 - c.Kernel + 1
	n.pool2 = n.len2 / 2
	n.flat = n.pool2 * c.Conv2Filters
}

// NumParams counts trainable parameters.
func (n *Network) NumParams() int {
	count := func(m [][]float64) int {
		t := 0
		for _, r := range m {
			t += len(r)
		}
		return t
	}
	return count(n.W1) + len(n.B1) + count(n.W2) + len(n.B2) +
		count(n.W3) + len(n.B3) + count(n.W4) + len(n.B4)
}

// InferenceBatch is the batch width assumed for the live-memory estimate:
// production inference engines (the paper's TensorFlow runtime included)
// hold activation tensors for a whole batch at once.
const InferenceBatch = 64

// MemoryBytes estimates the live inference footprint: parameters plus the
// activation tensors of one inference batch — the reason the CNN is the
// heaviest model in Table II.
func (n *Network) MemoryBytes() int64 {
	params := int64(n.NumParams()) * 8
	acts := int64(n.Cfg.Conv1Filters*(n.len1+n.pool1)+
		n.Cfg.Conv2Filters*(n.len2+n.pool2)+
		n.flat+n.Cfg.Hidden+n.Cfg.Classes) * 8
	return params + acts*InferenceBatch + 256
}

// activations holds one forward pass (retained for backprop, and by the
// batch path for reuse by the next row).
type activations struct {
	in    []float64
	conv1 [][]float64 // [f1][len1] post-ReLU
	pool1 [][]float64 // [f1][pool1]
	arg1  [][]int     // argmax indices for pool1
	conv2 [][]float64 // [f2][len2] post-ReLU
	pool2 [][]float64 // [f2][pool2]
	arg2  [][]int
	flat  []float64
	hid   []float64 // post-ReLU
	out   []float64 // logits
	prob  []float64 // softmax

	// win1 and win2 hold each conv column's receptive field gathered in
	// weight order, [len1][kernel] and [len2][f1*kernel] flattened; the
	// training reads them for the conv weights' gradients. pre is one
	// column's pre-activations [filters].
	win1, win2, pre []float64
}

func relu(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// affine computes out[r] = b[r] + Σ_j w[r][j]·x[j] for every row of w, four
// rows per pass over x. A row count that is not a multiple of four repeats
// the last row in the spare lanes.
func affine(w [][]float64, b, x, out []float64) {
	last := len(w) - 1
	for r := 0; r <= last; r += 4 {
		r1, r2, r3 := min(r+1, last), min(r+2, last), min(r+3, last)
		out[r], out[r1], out[r2], out[r3] = dot4(w[r], w[r1], w[r2], w[r3], x, b[r], b[r1], b[r2], b[r3])
	}
}

// dot4 returns s_k + Σ_j w_k[j]·x[j] for four weight rows at once. One
// row's sum is a chain of dependent adds, each waiting out the previous
// add's latency; four rows are four independent chains the CPU overlaps,
// and each still adds its terms in index order, so every result has the
// bits the row-at-a-time loop gives.
func dot4(w0, w1, w2, w3, x []float64, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	w0, w1, w2, w3 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)]
	for j, v := range x {
		s0 += w0[j] * v
		s1 += w1[j] * v
		s2 += w2[j] * v
		s3 += w3[j] * v
	}
	return s0, s1, s2, s3
}

// conv writes out[f][i] = relu(b[f] + Σ_ch Σ_k w[f][ch·kernel+k]·in[ch][i+k])
// for the first cols columns. Column i's receptive field is gathered once,
// in weight order, into (*win)[i·width:(i+1)·width], and every filter reads
// it through affine; columns from cols on keep the fields they held.
func (a *activations) conv(w [][]float64, b []float64, kernel, cols int, out [][]float64, win *[]float64, in ...[]float64) {
	width := len(in) * kernel
	*win = growv(*win, len(out[0])*width)
	a.pre = growv(a.pre, len(w))
	for i := 0; i < cols; i++ {
		field := (*win)[i*width : (i+1)*width]
		wi := 0
		for _, row := range in {
			for _, v := range row[i : i+kernel] {
				field[wi] = v
				wi++
			}
		}
		affine(w, b, field, a.pre)
		for f, s := range a.pre {
			out[f][i] = relu(s)
		}
	}
}

// forward runs the network on x into a. changed is how many leading input
// columns differ from the row a last held for this network: conv and pool
// columns whose receptive field lies wholly at or past it are kept from
// that row, which is exact because they are functions of those inputs
// alone. The dense layers mix every column and are always recomputed.
// changed == Cfg.Inputs recomputes everything and makes no assumption
// about a; changed == 0 leaves a as it is.
func (n *Network) forward(x []float64, a *activations, changed int) {
	if changed == 0 {
		return
	}
	c := n.Cfg
	a.in = x
	// Columns to recompute per stage: a conv column starts its receptive
	// field at its own index, a pool column covers conv columns 2i, 2i+1.
	cols1 := min(changed, n.len1)
	pcols1 := min((cols1+1)/2, n.pool1)
	cols2 := min(pcols1, n.len2)
	pcols2 := min((cols2+1)/2, n.pool2)
	// Both conv blocks, one output column (all filters) at a time.
	a.conv1 = grow2(a.conv1, c.Conv1Filters, n.len1)
	a.conv(n.W1, n.B1, c.Kernel, cols1, a.conv1, &a.win1, x)
	a.pool1, a.arg1 = maxpool(a.conv1, a.pool1, a.arg1, n.pool1, pcols1)
	a.conv2 = grow2(a.conv2, c.Conv2Filters, n.len2)
	a.conv(n.W2, n.B2, c.Kernel, cols2, a.conv2, &a.win2, a.pool1...)
	a.pool2, a.arg2 = maxpool(a.conv2, a.pool2, a.arg2, n.pool2, pcols2)
	// flatten.
	a.flat = growv(a.flat, n.flat)
	for f := 0; f < c.Conv2Filters; f++ {
		copy(a.flat[f*n.pool2:], a.pool2[f][:pcols2])
	}
	// dense + ReLU.
	a.hid = growv(a.hid, c.Hidden)
	affine(n.W3, n.B3, a.flat, a.hid)
	for h, s := range a.hid {
		a.hid[h] = relu(s)
	}
	// output + softmax.
	a.out = growv(a.out, c.Classes)
	affine(n.W4, n.B4, a.hid, a.out)
	maxLogit := math.Inf(-1)
	for _, s := range a.out {
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

func grow2(m [][]float64, rows, cols int) [][]float64 {
	if len(m) != rows {
		m = make([][]float64, rows)
	}
	for i := range m {
		if cap(m[i]) < cols {
			m[i] = make([]float64, cols)
		}
		m[i] = m[i][:cols]
	}
	return m
}

func grow2i(m [][]int, rows, cols int) [][]int {
	if len(m) != rows {
		m = make([][]int, rows)
	}
	for i := range m {
		if cap(m[i]) < cols {
			m[i] = make([]int, cols)
		}
		m[i] = m[i][:cols]
	}
	return m
}

func growv(v []float64, n int) []float64 {
	if cap(v) < n {
		v = make([]float64, n)
	}
	return v[:n]
}

// maxpool performs width-2 max pooling per channel over the first cols
// output columns, recording argmaxes.
func maxpool(in, out [][]float64, arg [][]int, outLen, cols int) ([][]float64, [][]int) {
	out = grow2(out, len(in), outLen)
	arg = grow2i(arg, len(in), outLen)
	for ch := range in {
		for i := 0; i < cols; i++ {
			j := 2 * i
			v, a := in[ch][j], j
			if j+1 < len(in[ch]) && in[ch][j+1] > v {
				v, a = in[ch][j+1], j+1
			}
			out[ch][i] = v
			arg[ch][i] = a
		}
	}
	return out, arg
}

// actPool recycles inference activation buffers. Predict pulls a buffer per
// call instead of mutating Network state, so trained networks are safe to
// share across goroutines — the parallel experiment sweeps rely on that.
var actPool = sync.Pool{New: func() any { return new(activations) }}

// class is the argmax of the softmax output, the lowest index on ties.
func (a *activations) class() int {
	best, bestP := 0, -1.0
	for o, p := range a.prob {
		if p > bestP {
			best, bestP = o, p
		}
	}
	return best
}

// Predict returns the argmax class for x. It is safe for concurrent use.
func (n *Network) Predict(x []float64) int {
	a := actPool.Get().(*activations)
	n.forward(x, a, n.Cfg.Inputs)
	best := a.class()
	a.in = nil // do not pin the caller's vector in the pool
	actPool.Put(a)
	return best
}

// PredictBatch implements ml.BatchClassifier: out[i] = Predict(xs[i]), with
// each row recomputing only what its longest common suffix with the
// previous row does not already determine — nothing at all for a repeated
// row. Rows of one IDS window share their statistics block, the vector's
// tail. It is safe for concurrent use.
func (n *Network) PredictBatch(xs [][]float64, out []int) {
	a := actPool.Get().(*activations)
	in := n.Cfg.Inputs
	for i, x := range xs {
		changed := in
		if i > 0 {
			changed = changedPrefix(xs[i-1][:in], x[:in])
		}
		n.forward(x, a, changed)
		out[i] = a.class()
	}
	a.in = nil
	actPool.Put(a)
}

// changedPrefix is the length of the shortest prefix of x past which x and
// prev (equally long) agree bit for bit.
func changedPrefix(prev, x []float64) int {
	i := len(x)
	for i > 0 && math.Float64bits(x[i-1]) == math.Float64bits(prev[i-1]) {
		i--
	}
	return i
}
