package modelio

import (
	"bytes"
	"path/filepath"
	"testing"

	"ddoshield/internal/dataset"
	"ddoshield/internal/ml"
	"ddoshield/internal/ml/cnn"
	"ddoshield/internal/ml/forest"
	"ddoshield/internal/ml/kmeans"
	"ddoshield/internal/ml/mltest"
)

func TestRoundTripAllModels(t *testing.T) {
	xs, ys := mltest.Blobs(300, 16, 3, 1)
	probe := xs[:50]

	rf, err := forest.Train(forest.Config{Trees: 10, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	km, err := kmeans.Train(kmeans.Config{Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := cnn.Train(cnn.Config{Epochs: 2, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}

	for _, m := range []interface {
		Predict([]float64) int
		Name() string
	}{rf, km, net} {
		var buf bytes.Buffer
		if err := SaveBundle(&buf, Bundle{Model: m}); err != nil {
			t.Fatalf("save %s: %v", m.Name(), err)
		}
		b, err := LoadBundle(&buf)
		if err != nil {
			t.Fatalf("load %s: %v", m.Name(), err)
		}
		got := b.Model
		if got.Name() != m.Name() {
			t.Fatalf("kind changed: %s -> %s", m.Name(), got.Name())
		}
		for _, x := range probe {
			if got.Predict(x) != m.Predict(x) {
				t.Fatalf("%s: prediction changed after round trip", m.Name())
			}
		}
	}
}

func TestModelSizeOrdering(t *testing.T) {
	// Table II's shape: the K-Means model is dramatically smaller than RF
	// and CNN (11 Kb vs ~712/736 Kb in the paper).
	// Overlapping blobs grow deep trees, as noisy IDS traffic does.
	xs, ys := mltest.Blobs(2000, 26, 0.5, 2)
	rf, err := forest.Train(forest.Config{Trees: 50, MaxDepth: 12, Seed: 2}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	km, err := kmeans.Train(kmeans.Config{Seed: 2}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := cnn.Train(cnn.Config{Epochs: 1, Seed: 2}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	sz := map[string]int64{}
	for _, m := range []interface {
		Predict([]float64) int
		Name() string
	}{rf, km, net} {
		n, err := SizeBytes(m)
		if err != nil {
			t.Fatal(err)
		}
		sz[m.Name()] = n
	}
	if sz["kmeans"]*10 > sz["rf"] || sz["kmeans"]*10 > sz["cnn"] {
		t.Fatalf("size ordering broken: %v", sz)
	}
}

func TestLoadRejectsJunk(t *testing.T) {
	if _, err := LoadBundle(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("accepted junk")
	}
}

func TestBundleRoundTrip(t *testing.T) {
	xs, ys := mltest.Blobs(200, 16, 3, 9)
	km, err := kmeans.Train(kmeans.Config{Seed: 9}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	sc := &dataset.StandardScaler{Mean: make([]float64, 16), Std: make([]float64, 16)}
	for i := range sc.Std {
		sc.Std[i] = 2
		sc.Mean[i] = float64(i)
	}
	var buf bytes.Buffer
	if err := SaveBundle(&buf, Bundle{Model: km, Scaler: sc}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model.Name() != "kmeans" || got.Scaler == nil {
		t.Fatalf("bundle = %+v", got)
	}
	if got.Scaler.Mean[3] != 3 || got.Scaler.Std[3] != 2 {
		t.Fatal("scaler corrupted")
	}
	// Bundle without scaler.
	buf.Reset()
	if err := SaveBundle(&buf, Bundle{Model: km}); err != nil {
		t.Fatal(err)
	}
	got2, err := LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Scaler != nil {
		t.Fatal("phantom scaler")
	}
}

func TestOffsetViewRoundTrip(t *testing.T) {
	xs, ys := mltest.Blobs(200, 10, 3, 10)
	rf, err := forest.Train(forest.Config{Trees: 3, Seed: 10}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	v := ml.OffsetView{Inner: rf, Offset: 6}
	var buf bytes.Buffer
	if err := SaveBundle(&buf, Bundle{Model: v}); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := b.Model
	gv, ok := got.(ml.OffsetView)
	if !ok || gv.Offset != 6 {
		t.Fatalf("got %T %+v", got, got)
	}
	probe := make([]float64, 16)
	if gv.Predict(probe) != v.Predict(probe) {
		t.Fatal("prediction changed")
	}
}

func TestBundleFileRoundTrip(t *testing.T) {
	xs, ys := mltest.Blobs(100, 8, 3, 12)
	km, err := kmeans.Train(kmeans.Config{Seed: 12}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "b.model")
	if err := SaveBundleFile(path, Bundle{Model: km}); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Model.Name() != "kmeans" {
		t.Fatal("wrong kind")
	}
	if _, err := LoadBundleFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("loaded missing file")
	}
}

func TestLoadBundleRejectsPlainModel(t *testing.T) {
	xs, ys := mltest.Blobs(60, 4, 3, 13)
	km, err := kmeans.Train(kmeans.Config{Seed: 13}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, km); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(&buf); err == nil {
		t.Fatal("plain model accepted as bundle")
	}
}

type unknownModel struct{}

func (unknownModel) Predict([]float64) int { return 0 }
func (unknownModel) Name() string          { return "mystery" }

func TestSaveRejectsUnknownModel(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, unknownModel{}); err == nil {
		t.Fatal("unknown model type accepted")
	}
	if _, err := SizeBytes(unknownModel{}); err == nil {
		t.Fatal("SizeBytes accepted unknown model")
	}
}

// TestLoadBundleRejectsMalformed: a bundle whose model would index past
// what it holds, loop, name a class the IDS cannot keep, cost unbounded
// work per prediction, or sit behind a scaler of another width is an error
// at load, not a panic or a hang at the first window.
func TestLoadBundleRejectsMalformed(t *testing.T) {
	xs, ys := mltest.Blobs(60, 4, 3, 14)
	good := func() *forest.Forest {
		rf, err := forest.Train(forest.Config{Trees: 2, MaxDepth: 3, Seed: 14}, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		return rf
	}
	km, err := kmeans.Train(kmeans.Config{InitClusters: 3, Seed: 14}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	wide, wideYs := mltest.Blobs(60, 12, 3, 14) // the CNN's kernels need 10 columns
	net, _, err := cnn.Train(cnn.Config{Conv1Filters: 2, Conv2Filters: 2, Hidden: 3, Epochs: 1, Seed: 14}, wide, wideYs)
	if err != nil {
		t.Fatal(err)
	}
	matrix := func(rows, cols int) [][]float64 {
		m := make([][]float64, rows)
		for i := range m {
			m[i] = make([]float64, cols)
		}
		return m
	}
	cases := map[string]func() Bundle{
		"rf split past the vector": func() Bundle {
			rf := good()
			rf.TreeList[0].Nodes[0].Feature = 4
			return Bundle{Model: rf}
		},
		"rf child before its parent": func() Bundle {
			rf := good()
			rf.TreeList[0].Nodes = append(rf.TreeList[0].Nodes, forest.Node{Feature: 0, Left: 0, Right: 0})
			rf.TreeList[0].Nodes[0].Right = int32(len(rf.TreeList[0].Nodes) - 1)
			return Bundle{Model: rf}
		},
		"rf leaf class past Classes": func() Bundle {
			rf := good()
			rf.TreeList[1].Nodes = []forest.Node{{Feature: -1, Class: 2}}
			return Bundle{Model: rf}
		},
		"rf without trees": func() Bundle { rf := good(); rf.TreeList = nil; return Bundle{Model: rf} },
		"kmeans label per centroid missing": func() Bundle {
			m := *km
			m.Labels = m.Labels[:len(m.Labels)-1]
			return Bundle{Model: &m}
		},
		"kmeans ragged centroids": func() Bundle {
			m := *km
			m.Centroids = append([][]float64{{1}}, m.Centroids[1:]...)
			return Bundle{Model: &m}
		},
		"kmeans label past a byte": func() Bundle {
			m := *km
			m.Labels = append([]int32{300}, m.Labels[1:]...)
			return Bundle{Model: &m}
		},
		"cnn weights of another shape": func() Bundle {
			n := *net
			n.W3 = n.W3[1:]
			return Bundle{Model: &n}
		},
		"cnn past the per-prediction bounds": func() Bundle {
			n := cnn.Network{Cfg: cnn.Config{Inputs: 1 << 16, Kernel: 1, Conv1Filters: 2048, Conv2Filters: 1, Hidden: 1, Classes: 2}}
			n.W1, n.B1 = matrix(2048, 1), make([]float64, 2048)
			n.W2, n.B2 = matrix(1, 2048), make([]float64, 1)
			n.W3, n.B3 = matrix(1, 1<<14), make([]float64, 1)
			n.W4, n.B4 = matrix(2, 1), make([]float64, 2)
			return Bundle{Model: &n}
		},
		"scaler of another width": func() Bundle {
			return Bundle{Model: km, Scaler: &dataset.StandardScaler{Mean: make([]float64, 5), Std: make([]float64, 5)}}
		},
		"negative offset":  func() Bundle { return Bundle{Model: ml.OffsetView{Inner: good(), Offset: -1}} },
		"offset in offset": func() Bundle { return Bundle{Model: ml.OffsetView{Inner: ml.OffsetView{Inner: good()}}} },
	}
	for name, bundle := range cases {
		var buf bytes.Buffer
		if err := SaveBundle(&buf, bundle()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, err := LoadBundle(&buf)
		if err == nil {
			t.Errorf("%s: loaded", name)
		}
		t.Logf("%s: %v", name, err)
	}
	// The well-formed originals load.
	for _, b := range []Bundle{{Model: good()}, {Model: km}, {Model: net}, {Model: ml.OffsetView{Inner: good(), Offset: 3}}} {
		var buf bytes.Buffer
		if err := SaveBundle(&buf, b); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadBundle(&buf); err != nil {
			t.Errorf("%s: %v", b.Model.Name(), err)
		}
	}
}
