package metrics

import (
	"math"
	"testing"
)

func TestConfusionCounting(t *testing.T) {
	var c Confusion
	truth := []int{1, 1, 1, 0, 0, 0, 0, 1}
	pred := []int{1, 1, 0, 0, 0, 1, 0, 1}
	c.AddBatch(truth, pred)
	if c.TP != 3 || c.TN != 3 || c.FP != 1 || c.FN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if c.Total() != 8 {
		t.Fatalf("Total = %d", c.Total())
	}
	if got := c.Accuracy(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Accuracy = %v", got)
	}
	p, ok := c.Precision()
	if !ok || math.Abs(p-0.75) > 1e-12 {
		t.Fatalf("Precision = %v %v", p, ok)
	}
	r, ok := c.Recall()
	if !ok || math.Abs(r-0.75) > 1e-12 {
		t.Fatalf("Recall = %v %v", r, ok)
	}
	f1, ok := c.F1()
	if !ok || math.Abs(f1-0.75) > 1e-12 {
		t.Fatalf("F1 = %v %v", f1, ok)
	}
}

func TestUndefinedMetricsSingleClassWindow(t *testing.T) {
	// A benign-only window predicted all benign: precision/recall/F1 are
	// undefined — the division-by-zero case §IV-D describes.
	var c Confusion
	c.AddBatch([]int{0, 0, 0}, []int{0, 0, 0})
	if c.Accuracy() != 1 {
		t.Fatal("accuracy should be 1")
	}
	if _, ok := c.Precision(); ok {
		t.Fatal("precision defined with no positive predictions")
	}
	if _, ok := c.Recall(); ok {
		t.Fatal("recall defined with no positive truths")
	}
	if _, ok := c.F1(); ok {
		t.Fatal("F1 defined with undefined constituents")
	}
	r := NewReport(c)
	if r.PrecisionDefined || r.RecallDefined || r.F1Defined {
		t.Fatalf("report = %+v", r)
	}
	if r.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestEmptyConfusion(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestMerge(t *testing.T) {
	a := Confusion{TP: 1, TN: 2, FP: 3, FN: 4}
	b := Confusion{TP: 10, TN: 20, FP: 30, FN: 40}
	a.Merge(b)
	if a.TP != 11 || a.TN != 22 || a.FP != 33 || a.FN != 44 {
		t.Fatalf("merged = %+v", a)
	}
}

func TestEvaluate(t *testing.T) {
	r := Evaluate([]int{1, 0}, []int{1, 1})
	if r.Accuracy != 0.5 {
		t.Fatalf("accuracy = %v", r.Accuracy)
	}
	if !r.PrecisionDefined || r.Precision != 0.5 {
		t.Fatalf("precision = %v", r.Precision)
	}
}

func TestMeanMin(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil)")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean")
	}
	if !math.IsInf(Min(nil), 1) {
		t.Fatal("Min(nil)")
	}
	if Min([]float64{3, 1, 2}) != 1 {
		t.Fatal("Min")
	}
}
