package ml

import (
	"math"
	"reflect"
	"testing"
)

// sumSign labels a row by the sign of its sum and counts its Predict calls.
type sumSign struct{ calls int }

func (m *sumSign) Name() string { return "sum-sign" }

func (m *sumSign) Predict(x []float64) int {
	m.calls++
	var s float64
	for _, v := range x {
		s += v
	}
	if s > 0 {
		return 1
	}
	return 0
}

// batchStub records that the batch kernel, not the fallback, ran.
type batchStub struct {
	sumSign
	batches int
}

func (m *batchStub) PredictBatch(xs [][]float64, out []int) {
	m.batches++
	for i, x := range xs {
		out[i] = m.Predict(x)
	}
}

func TestPredictBatchFallbackElidesRepeatedRows(t *testing.T) {
	nan := math.NaN()
	negZero := math.Copysign(0, -1)
	xs := [][]float64{
		{1, 2}, {1, 2}, {1, 2}, // one call
		{-3, 1}, {-3, 1}, // one call
		{1, 2},             // differs from its predecessor: a call
		{nan, 1}, {nan, 1}, // same bits: one call
		{0, 0}, {negZero, 0}, // == but not the same bits: two calls
	}
	m := &sumSign{}
	got := make([]int, len(xs)+3)
	PredictBatch(m, xs, got)
	want := make([]int, len(xs))
	ref := &sumSign{}
	for i, x := range xs {
		want[i] = ref.Predict(x)
	}
	if !reflect.DeepEqual(got[:len(xs)], want) {
		t.Fatalf("PredictBatch = %v, per-row Predict = %v", got[:len(xs)], want)
	}
	if m.calls != 6 {
		t.Fatalf("%d Predict calls for 6 runs of identical rows", m.calls)
	}
	PredictBatch(m, nil, nil) // an empty batch is a no-op
}

func TestPredictBatchPrefersBatchKernel(t *testing.T) {
	m := &batchStub{}
	out := make([]int, 2)
	PredictBatch(m, [][]float64{{1}, {-1}}, out)
	if m.batches != 1 || !reflect.DeepEqual(out, []int{1, 0}) {
		t.Fatalf("batches=%d out=%v", m.batches, out)
	}
}

func TestOffsetViewBatchSharesSuffixVerdict(t *testing.T) {
	// Rows of one IDS window: per-packet prefix varies, statistics suffix
	// is shared until the window changes.
	xs := [][]float64{
		{9, 8, 1, 1}, {7, 6, 1, 1}, {5, 4, 1, 1},
		{9, 8, -2, 1}, {0, 0, -2, 1},
	}
	inner := &sumSign{}
	v := OffsetView{Inner: inner, Offset: 2}
	got := make([]int, len(xs))
	PredictBatch(v, xs, got)
	if inner.calls != 2 {
		t.Fatalf("%d inner Predict calls for 2 distinct suffixes", inner.calls)
	}
	for i, x := range xs {
		if want := v.Predict(x); got[i] != want {
			t.Fatalf("row %d: batch %d, Predict %d", i, got[i], want)
		}
	}
}

func TestPredictBatchFallbackAllocFree(t *testing.T) {
	xs := [][]float64{{1, 2, 3}, {1, 2, 3}, {-4, 2, 1}}
	out := make([]int, len(xs))
	var m Classifier = OffsetView{Inner: &sumSign{}, Offset: 1}
	if a := testing.AllocsPerRun(100, func() { PredictBatch(m, xs, out) }); a != 0 {
		t.Fatalf("PredictBatch: %v allocs/op, want 0", a)
	}
}
