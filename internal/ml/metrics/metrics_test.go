package metrics

import (
	"math"
	"testing"
)

func TestConfusionCounting(t *testing.T) {
	var c Confusion
	truth := []int{1, 1, 1, 0, 0, 0, 0, 1}
	pred := []int{1, 1, 0, 0, 0, 1, 0, 1}
	for i := range truth {
		c.Add(truth[i], pred[i])
	}
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
	if r := NewReport(c); !r.PrecisionDefined || r.Precision != p || r.Accuracy != c.Accuracy() {
		t.Fatalf("report = %+v", r)
	}
}

func TestUndefinedMetricsSingleClassWindow(t *testing.T) {
	// A benign-only window predicted all benign: precision/recall/F1 are
	// undefined — the division-by-zero case §IV-D describes.
	var c Confusion
	for range 3 {
		c.Add(0, 0)
	}
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

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil)")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean")
	}
}
