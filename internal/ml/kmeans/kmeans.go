// Package kmeans implements the unsupervised K-Means detector of the paper
// (§III-B), following the entropy-penalized "U-k-means" scheme of Sinaga &
// Yang (2020) that the paper cites: the algorithm starts with a surplus of
// clusters, penalizes small mixing proportions through an entropy term in
// the assignment objective, and discards starved clusters as it iterates —
// determining the cluster count dynamically instead of fixing k a priori.
// For classification, each surviving cluster takes the majority label of
// its training members; prediction assigns the nearest centroid's label.
package kmeans

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"

	"ddoshield/internal/sim"
)

// Config tunes training.
type Config struct {
	// InitClusters is the starting cluster surplus (default 16).
	InitClusters int
	// Gamma weighs the entropy penalty -γ·ln(α_k) added to the squared
	// distance during assignment (default 1.0). Larger γ prunes harder.
	Gamma float64
	// MinProportion discards clusters whose mixing proportion α_k falls
	// below it (default 1/(4·InitClusters)).
	MinProportion float64
	// MaxIter bounds the update loop (default 100).
	MaxIter int
	// Classes is the number of labels for cluster→label mapping (default 2).
	Classes int
	// Seed drives centroid initialization.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.InitClusters <= 0 {
		c.InitClusters = 16
	}
	if c.Gamma <= 0 {
		c.Gamma = 1.0
	}
	if c.MinProportion <= 0 {
		c.MinProportion = 1 / float64(4*c.InitClusters)
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 100
	}
	if c.Classes <= 0 {
		c.Classes = 2
	}
	return c
}

// Model is the trained detector: surviving centroids, their mixing
// proportions and their majority labels.
type Model struct {
	Cfg       Config
	Centroids [][]float64
	Alpha     []float64
	Labels    []int32
	Iters     int
}

// Name implements ml.Classifier.
func (m *Model) Name() string { return "kmeans" }

// Predict assigns x to the nearest centroid and returns its label.
func (m *Model) Predict(x []float64) int {
	best, bestD := 0, math.Inf(1)
	for k, c := range m.Centroids {
		if d := sqDist(x, c); d < bestD {
			best, bestD = k, d
		}
	}
	return int(m.Labels[best])
}

// MemoryBytes estimates the live model footprint.
func (m *Model) MemoryBytes() int64 {
	var b int64
	for _, c := range m.Centroids {
		b += int64(len(c)) * 8
	}
	return b + int64(len(m.Alpha))*8 + int64(len(m.Labels))*4 + 64
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Train fits the model on rows xs; labels ys are used only for the final
// cluster→label mapping (the clustering itself is unsupervised, as in the
// paper).
func Train(cfg Config, xs [][]float64, ys []int) (*Model, error) {
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
	first := firstOccurrence(xs)
	iters := 0
	for ; iters < cfg.MaxIter; iters++ {
		// Assignment step with entropy-penalized distance. A row repeating
		// an earlier row bit for bit takes that row's cluster, already
		// assigned in this pass: it would compute the same distances.
		changed := 0
		counts := make([]int, len(centroids))
		lg := make([]float64, len(centroids))
		for c := range lg {
			lg[c] = math.Log(alpha[c] + 1e-300)
		}
		for i, x := range xs {
			best := 0
			if f := first[i]; f < i {
				best = assign[f]
			} else {
				bestD := math.Inf(1)
				for c := range centroids {
					pd := sqDist(x, centroids[c]) - cfg.Gamma*lg[c]
					if pd < bestD {
						best, bestD = c, pd
					}
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

// firstOccurrence maps each row to the first row with the same bits. A
// row whose hash collides with a different earlier row's maps to itself,
// which costs only the saving.
func firstOccurrence(xs [][]float64) []int {
	first := make([]int, len(xs))
	seen := make(map[uint64]int)
	seed := maphash.MakeSeed()
	var buf []byte
	for i, x := range xs {
		first[i] = i
		buf = buf[:0]
		for _, v := range x {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		h := maphash.Bytes(seed, buf)
		f, ok := seen[h]
		switch {
		case !ok:
			seen[h] = i
		case sameBits(xs[f], x):
			first[i] = f
		}
	}
	return first
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

func argmax(vals []int) int {
	best, bestV := 0, -1
	for i, v := range vals {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
