package kmeans

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ddoshield/internal/ml/mltest"
	"ddoshield/internal/sim"
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

// TestTrainMatchesPerRowAssignment trains on blobs with 400 repeated rows
// inserted at random places, pairs of rows that differ only in a +0 and a
// -0 (the same distances, other bits), and a surplus of clusters that
// pruning must cut, and wants the oracle's gob bytes.
func TestTrainMatchesPerRowAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial, dims := range []int{26, 4, 1} {
		xs, ys := mltest.Blobs(600, dims, 3, int64(trial+40))
		insert := func(row []float64, y int) {
			at := rng.Intn(len(xs) + 1)
			xs = append(xs[:at], append([][]float64{row}, xs[at:]...)...)
			ys = append(ys[:at], append([]int{y}, ys[at:]...)...)
		}
		for i := 0; i < 400; i++ {
			src := rng.Intn(len(xs))
			row := append([]float64(nil), xs[src]...)
			if i%50 == 0 {
				xs[src][0], row[0] = 0, math.Copysign(0, -1)
			}
			insert(row, ys[src])
		}
		cfg := Config{InitClusters: 24, Gamma: 1.5, Classes: 3, Seed: int64(trial)}
		got, err := Train(cfg, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleTrain(cfg, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Centroids) >= cfg.InitClusters {
			t.Fatalf("dims %d: no cluster pruned (%d survive)", dims, len(want.Centroids))
		}
		if g, w := gobBytes(t, got), gobBytes(t, want); !bytes.Equal(g, w) {
			t.Fatalf("dims %d: model differs from the per-row oracle's (%d vs %d clusters, %d vs %d iterations)",
				dims, len(got.Centroids), len(want.Centroids), got.Iters, want.Iters)
		}
	}
}

func gobBytes(t *testing.T, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// oracleTrain is Train as it was before it assigned each distinct row once
// and took the logarithms once per pass, kept as the oracle Train is
// compared against byte for byte.
func oracleTrain(cfg Config, xs [][]float64, ys []int) (*Model, error) {
	cfg = cfg.withDefaults()
	n := len(xs)
	if n == 0 {
		return nil, fmt.Errorf("kmeans: empty training set")
	}
	if len(ys) != n {
		return nil, fmt.Errorf("kmeans: %d rows vs %d labels", n, len(ys))
	}
	d := len(xs[0])
	rng := sim.Substream(cfg.Seed, "kmeans")

	k := cfg.InitClusters
	if k > n {
		k = n
	}
	// Initialize centroids on distinct random points.
	centroids := make([][]float64, 0, k)
	for _, idx := range rng.Perm(n)[:k] {
		c := make([]float64, d)
		copy(c, xs[idx])
		centroids = append(centroids, c)
	}
	alpha := make([]float64, k)
	for i := range alpha {
		alpha[i] = 1 / float64(k)
	}

	assign := make([]int, n)
	iters := 0
	for ; iters < cfg.MaxIter; iters++ {
		// Assignment step with entropy-penalized distance.
		changed := 0
		counts := make([]int, len(centroids))
		for i, x := range xs {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				pd := sqDist(x, centroids[c]) - cfg.Gamma*math.Log(alpha[c]+1e-300)
				if pd < bestD {
					best, bestD = c, pd
				}
			}
			if assign[i] != best {
				changed++
			}
			assign[i] = best
			counts[best]++
		}

		// Update mixing proportions and prune starved clusters.
		keep := make([]int, 0, len(centroids))
		for c := range centroids {
			if float64(counts[c])/float64(n) >= cfg.MinProportion {
				keep = append(keep, c)
			}
		}
		if len(keep) == 0 {
			keep = append(keep, argmax(counts))
		}
		pruned := len(keep) != len(centroids)
		if pruned {
			remap := make([]int, len(centroids))
			for i := range remap {
				remap[i] = -1
			}
			newCentroids := make([][]float64, len(keep))
			for ni, c := range keep {
				remap[c] = ni
				newCentroids[ni] = centroids[c]
			}
			centroids = newCentroids
			// Reassign points of dropped clusters to the nearest survivor.
			counts = make([]int, len(centroids))
			for i, x := range xs {
				c := remap[assign[i]]
				if c < 0 {
					best, bestD := 0, math.Inf(1)
					for cc := range centroids {
						if dd := sqDist(x, centroids[cc]); dd < bestD {
							best, bestD = cc, dd
						}
					}
					c = best
				}
				assign[i] = c
				counts[c]++
			}
		}

		// Centroid update.
		alpha = make([]float64, len(centroids))
		sums := make([][]float64, len(centroids))
		for c := range sums {
			sums[c] = make([]float64, d)
		}
		for i, x := range xs {
			c := assign[i]
			for j, v := range x {
				sums[c][j] += v
			}
		}
		for c := range centroids {
			if counts[c] > 0 {
				for j := range sums[c] {
					sums[c][j] /= float64(counts[c])
				}
				centroids[c] = sums[c]
			}
			alpha[c] = float64(counts[c]) / float64(n)
		}

		if changed == 0 && !pruned {
			break
		}
	}

	// Majority label per cluster.
	votes := make([][]int, len(centroids))
	for c := range votes {
		votes[c] = make([]int, cfg.Classes)
	}
	for i := range xs {
		votes[assign[i]][ys[i]]++
	}
	labels := make([]int32, len(centroids))
	for c := range votes {
		labels[c] = int32(argmax(votes[c]))
	}
	return &Model{Cfg: cfg, Centroids: centroids, Alpha: alpha, Labels: labels, Iters: iters + 1}, nil
}
