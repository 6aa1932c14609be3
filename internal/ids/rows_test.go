package ids

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"ddoshield/internal/features"
	"ddoshield/internal/ml"
	"ddoshield/internal/sim"
)

// countingModel counts the rows the unit hands its model.
type countingModel struct {
	inner ml.Classifier
	rows  atomic.Int64
}

func (m *countingModel) Predict(x []float64) int {
	m.rows.Add(1)
	return m.inner.Predict(x)
}
func (m *countingModel) Name() string { return m.inner.Name() }
func (m *countingModel) PredictBatch(xs [][]float64, out []int) {
	m.rows.Add(int64(len(xs)))
	ml.PredictBatch(m.inner, xs, out)
}

// TestModelSeesDistinctRowsOnly: per window, the model classifies as many
// rows as the window has distinct feature vectors (counted here from the
// vectors' bits), plus one per packet too long to key, whatever the
// window's size.
func TestModelSeesDistinctRowsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sizes := []int{1, chunk, 1000, 3*chunk + 7}
	frames := append(windowsOf(rng, sizes), rowWindows(sim.Time(len(sizes))*sim.Second)...)

	var want []int64
	e := features.NewExtractor(time.Second, func(w *features.Window) {
		seen, unkeyed := map[[10]uint64]bool{}, 0
		for i := range w.Packets {
			if _, ok := features.RowKey(&w.Packets[i]); !ok {
				unkeyed++
				continue
			}
			var k [10]uint64
			for c, v := range features.AppendVector(nil, &w.Packets[i], &w.Stats)[:len(k)] {
				k[c] = math.Float64bits(v)
			}
			seen[k] = true
		}
		want = append(want, int64(len(seen)+unkeyed))
	})
	for _, p := range frames {
		e.AddPacket(p)
	}
	e.Flush()

	m := &countingModel{inner: NewThresholdRule()}
	u := New(Config{Model: m})
	var got []int64
	u.AddWindowHook(func(*WindowResult) { got = append(got, m.rows.Swap(0)) })
	for _, p := range frames {
		u.Feed(p)
	}
	u.Flush()
	if len(got) != len(want) {
		t.Fatalf("%d windows folded, %d extracted", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("window %d: the model classified %d rows; the window has %d distinct vectors", i, got[i], want[i])
		}
	}
}
