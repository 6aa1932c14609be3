//go:build !race

package cnn

import (
	"math/rand"
	"testing"
)

// Not built under the race detector, where sync.Pool drops a share of its
// Puts on purpose and the pooled activations are reallocated.
func TestPredictAllocFree(t *testing.T) {
	n, err := New(Config{Inputs: 26, Conv1Filters: 8, Conv2Filters: 16, Hidden: 48, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	xs := suffixBatch(rand.New(rand.NewSource(1)), 64, 26)
	out := make([]int, len(xs))
	n.PredictBatch(xs, out) // size the pooled activations
	if a := testing.AllocsPerRun(100, func() { n.Predict(xs[3]) }); a != 0 {
		t.Errorf("Predict: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { n.PredictBatch(xs, out) }); a != 0 {
		t.Errorf("PredictBatch: %v allocs/op, want 0", a)
	}
}
