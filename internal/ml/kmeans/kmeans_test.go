package kmeans

import (
	"testing"

	"ddoshield/internal/ml/mltest"
)

func TestKMeansLearnsBlobs(t *testing.T) {
	xs, ys := mltest.Blobs(600, 6, 4, 1)
	m, err := Train(Config{Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := mltest.Blobs(200, 6, 4, 2)
	if acc := mltest.Accuracy(m.Predict, testX, testY); acc < 0.95 {
		t.Fatalf("blob accuracy = %.3f", acc)
	}
}

func TestEntropyPenaltyPrunesClusters(t *testing.T) {
	// Two well-separated blobs, 16 initial clusters: pruning should cut the
	// population well below the surplus.
	xs, ys := mltest.Blobs(800, 4, 8, 3)
	m, err := Train(Config{InitClusters: 16, Gamma: 2, Seed: 3}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Centroids) >= 16 {
		t.Fatalf("no pruning: %d clusters survive", len(m.Centroids))
	}
	if len(m.Centroids) < 1 {
		t.Fatal("all clusters pruned")
	}
	if m.Iters <= 0 {
		t.Fatal("Iters not recorded")
	}
}

func TestAlphaSumsToOne(t *testing.T) {
	xs, ys := mltest.Blobs(300, 3, 2, 4)
	m, err := Train(Config{Seed: 4}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, a := range m.Alpha {
		if a < 0 {
			t.Fatalf("negative mixing proportion %v", a)
		}
		sum += a
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("alpha sum = %v", sum)
	}
}

func TestKMeansRejectsBadInput(t *testing.T) {
	if _, err := Train(Config{}, nil, nil); err == nil {
		t.Fatal("accepted empty training set")
	}
	if _, err := Train(Config{}, [][]float64{{1}}, []int{0, 1}); err == nil {
		t.Fatal("accepted mismatched labels")
	}
}

func TestKMeansDeterministic(t *testing.T) {
	xs, ys := mltest.Blobs(200, 4, 3, 5)
	m1, err := Train(Config{Seed: 7}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(Config{Seed: 7}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1.Centroids) != len(m2.Centroids) {
		t.Fatal("same-seed models differ")
	}
}

func TestTinyDataset(t *testing.T) {
	xs := [][]float64{{0, 0}, {10, 10}}
	ys := []int{0, 1}
	m, err := Train(Config{InitClusters: 16, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict([]float64{0.5, 0.5}) != 0 || m.Predict([]float64{9, 9}) != 1 {
		t.Fatal("tiny dataset mispredicted")
	}
}

func TestModelFootprintTiny(t *testing.T) {
	xs, ys := mltest.Blobs(500, 26, 3, 6)
	m, err := Train(Config{Seed: 6}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	// The K-Means model is centroids only — the paper's Table II shows it
	// ~60x smaller than RF/CNN. Sanity: well under 64 KiB.
	if m.MemoryBytes() > 64<<10 {
		t.Fatalf("kmeans footprint = %d bytes", m.MemoryBytes())
	}
	if m.Name() != "kmeans" {
		t.Fatal("Name()")
	}
}

func TestPredictAllocFree(t *testing.T) {
	xs, ys := mltest.Blobs(300, 6, 2, 7)
	m, err := Train(Config{Seed: 7}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { m.Predict(xs[0]) }); a != 0 {
		t.Fatalf("Predict: %v allocs/op, want 0", a)
	}
}
