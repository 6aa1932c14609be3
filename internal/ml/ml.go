// Package ml is the from-scratch machine-learning layer of the IDS: the
// paper's three detectors (Random Forest, entropy-penalized K-Means and a
// 1-D Convolutional Neural Network) behind a common Classifier interface,
// plus evaluation metrics and model serialization. The paper implements RF
// and K-Means with scikit-learn and the CNN with TensorFlow; here all three
// are reimplemented in pure Go on the same feature vectors.
package ml

import "math"

// Classifier is a trained model that labels one feature vector with a
// class index (dataset.Benign or dataset.Malicious in the IDS).
type Classifier interface {
	// Predict returns the predicted class of x.
	Predict(x []float64) int
	// Name identifies the model family ("rf", "kmeans", "cnn").
	Name() string
}

// BatchClassifier is optionally implemented by models that label a run of
// rows cheaper than one Predict per row (the CNN reuses the activations a
// row shares with its predecessor). out[i] must equal Predict(xs[i]).
type BatchClassifier interface {
	Classifier
	// PredictBatch writes the class of xs[i] to out[i]; len(out) == len(xs).
	PredictBatch(xs [][]float64, out []int)
}

// PredictBatch writes c's label for every row of xs into out[:len(xs)] —
// the one batch entry point the live IDS and the offline evaluations share.
// Models without a batch kernel are walked row by row, and a row
// bit-identical to its predecessor takes the predecessor's label without a
// Predict call; no model's result depends on which path ran.
func PredictBatch(c Classifier, xs [][]float64, out []int) {
	out = out[:len(xs)]
	if bc, ok := c.(BatchClassifier); ok {
		bc.PredictBatch(xs, out)
		return
	}
	predictRows(c, 0, xs, out)
}

// predictRows is the per-row fallback over the column suffix xs[i][off:].
func predictRows(c Classifier, off int, xs [][]float64, out []int) {
	var prev []float64
	for i, x := range xs {
		x = x[off:]
		if i == 0 || !sameBits(x, prev) {
			out[i] = c.Predict(x)
		} else {
			out[i] = out[i-1]
		}
		prev = x
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns, the
// only equality under which skipping a recomputation is exact (== would
// merge ±0 and split a NaN from itself).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// OffsetView adapts a classifier trained on a suffix of the feature vector
// (e.g. the statistical block only) to full vectors: Predict drops the
// first Offset columns before delegating. The Table I RF reproduction uses
// it to model a detector whose decisions are driven by the shared
// window-statistics block — the behaviour the paper attributes to its RF.
type OffsetView struct {
	Inner  Classifier
	Offset int
}

var _ BatchClassifier = OffsetView{}

// Predict delegates on the column suffix.
func (v OffsetView) Predict(x []float64) int { return v.Inner.Predict(x[v.Offset:]) }

// PredictBatch delegates on the column suffix. Rows that differ only in
// the dropped columns — every packet of one IDS window, whose statistics
// block is shared — cost one inner Predict between them.
func (v OffsetView) PredictBatch(xs [][]float64, out []int) {
	predictRows(v.Inner, v.Offset, xs, out)
}

// Name reports the inner model's name.
func (v OffsetView) Name() string { return v.Inner.Name() }

// MemoryBytes delegates when the inner model reports a footprint.
func (v OffsetView) MemoryBytes() int64 {
	if mr, ok := v.Inner.(interface{ MemoryBytes() int64 }); ok {
		return mr.MemoryBytes()
	}
	return 0
}
