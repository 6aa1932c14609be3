package modelio

import (
	"bytes"
	"testing"

	"ddoshield/internal/dataset"
	"ddoshield/internal/ml"
	"ddoshield/internal/ml/cnn"
	"ddoshield/internal/ml/forest"
	"ddoshield/internal/ml/kmeans"
	"ddoshield/internal/ml/mltest"
)

// FuzzLoadBundle: a model file is user input (cmd/detect opens whatever it
// is given). Whatever the bytes, LoadBundle either returns an error or a
// bundle that classifies a zero vector of its declared width — scaled by
// its scaler, through Predict and PredictBatch alike — without panicking,
// into a class the IDS can hold.
func FuzzLoadBundle(f *testing.F) {
	xs, ys := mltest.Blobs(40, 12, 3, 1)
	rf, err := forest.Train(forest.Config{Trees: 2, MaxDepth: 3, Seed: 1}, xs, ys)
	if err != nil {
		f.Fatal(err)
	}
	km, err := kmeans.Train(kmeans.Config{InitClusters: 3, Seed: 1}, xs, ys)
	if err != nil {
		f.Fatal(err)
	}
	net, _, err := cnn.Train(cnn.Config{Conv1Filters: 2, Conv2Filters: 2, Hidden: 3, Epochs: 1, Seed: 1}, xs, ys)
	if err != nil {
		f.Fatal(err)
	}
	sc := &dataset.StandardScaler{Mean: make([]float64, 12), Std: make([]float64, 12)}
	for i := range sc.Std {
		sc.Mean[i], sc.Std[i] = float64(i), 2
	}
	for _, b := range []Bundle{
		{Model: rf},
		{Model: ml.OffsetView{Inner: rf, Offset: 5}},
		{Model: km, Scaler: sc},
		{Model: net, Scaler: sc},
	} {
		var buf bytes.Buffer
		if err := SaveBundle(&buf, b); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := LoadBundle(bytes.NewReader(data))
		if err != nil {
			return
		}
		x := make([]float64, Width(b.Model))
		if b.Scaler != nil {
			b.Scaler.Transform(x)
		}
		one := b.Model.Predict(x)
		batch := []int{-1}
		ml.PredictBatch(b.Model, [][]float64{x}, batch)
		if one < 0 || one > 255 || batch[0] != one {
			t.Fatalf("%s over a zero vector of width %d: Predict %d, PredictBatch %d", b.Model.Name(), len(x), one, batch[0])
		}
	})
}
