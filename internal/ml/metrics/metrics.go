// Package metrics implements the evaluation measures of §IV-C: accuracy,
// precision, recall and F1-score over a confusion matrix. The paper notes
// that during real-time detection only accuracy is meaningful (windows may
// contain a single class, making precision/recall divide by zero); the
// Report type mirrors that by exposing Defined flags alongside values.
package metrics

import "fmt"

// Confusion is a binary confusion matrix with the malicious class as
// positive.
type Confusion struct {
	TP int // malicious predicted malicious
	TN int // benign predicted benign
	FP int // benign predicted malicious
	FN int // malicious predicted benign
}

// Add accumulates one prediction.
func (c *Confusion) Add(truth, pred int) {
	switch {
	case truth == 1 && pred == 1:
		c.TP++
	case truth == 0 && pred == 0:
		c.TN++
	case truth == 0 && pred == 1:
		c.FP++
	default:
		c.FN++
	}
}

// Total reports the number of accumulated predictions.
func (c Confusion) Total() int { return c.TP + c.TN + c.FP + c.FN }

// Accuracy is (TP+TN)/total; NaN-free (0 on empty).
func (c Confusion) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(t)
}

// Precision is TP/(TP+FP). ok=false when undefined (no positive
// predictions) — the division-by-zero case the paper avoids in real time.
func (c Confusion) Precision() (v float64, ok bool) {
	if c.TP+c.FP == 0 {
		return 0, false
	}
	return float64(c.TP) / float64(c.TP+c.FP), true
}

// Recall is TP/(TP+FN). ok=false when undefined (no positive truths).
func (c Confusion) Recall() (v float64, ok bool) {
	if c.TP+c.FN == 0 {
		return 0, false
	}
	return float64(c.TP) / float64(c.TP+c.FN), true
}

// F1 is the harmonic mean of precision and recall. ok=false when either
// constituent is undefined or both are zero.
func (c Confusion) F1() (v float64, ok bool) {
	p, pok := c.Precision()
	r, rok := c.Recall()
	if !pok || !rok || p+r == 0 {
		return 0, false
	}
	return 2 * p * r / (p + r), true
}

// Report bundles the four metrics with definedness flags.
type Report struct {
	Accuracy         float64
	Precision        float64
	PrecisionDefined bool
	Recall           float64
	RecallDefined    bool
	F1               float64
	F1Defined        bool
	Confusion        Confusion
}

// NewReport evaluates a confusion matrix.
func NewReport(c Confusion) Report {
	r := Report{Accuracy: c.Accuracy(), Confusion: c}
	r.Precision, r.PrecisionDefined = c.Precision()
	r.Recall, r.RecallDefined = c.Recall()
	r.F1, r.F1Defined = c.F1()
	return r
}

// String renders a one-line summary with percentages.
func (r Report) String() string {
	fmtPct := func(v float64, def bool) string {
		if !def {
			return "n/a"
		}
		return fmt.Sprintf("%.2f%%", v*100)
	}
	return fmt.Sprintf("acc=%.2f%% prec=%s rec=%s f1=%s (tp=%d tn=%d fp=%d fn=%d)",
		r.Accuracy*100,
		fmtPct(r.Precision, r.PrecisionDefined),
		fmtPct(r.Recall, r.RecallDefined),
		fmtPct(r.F1, r.F1Defined),
		r.Confusion.TP, r.Confusion.TN, r.Confusion.FP, r.Confusion.FN)
}

// Mean averages a series of values, returning 0 on empty input.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
