package main

import (
	"math"
	"slices"
)

// quantile is the linearly interpolated q-quantile (0 <= q <= 1); 0 for an
// empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile picks the highest of the usual percentiles that still has
// at least ten samples beyond it, and its value. ok is false when even the
// 75th has fewer (n < 40): then only the median is worth stating.
func tailPercentile(xs []float64) (label string, value float64, ok bool) {
	n := float64(len(xs))
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p75", 0.75}} {
		if n*(1-p.q) >= 10 {
			return p.label, quantile(xs, p.q), true
		}
	}
	return "", 0, false
}

// summary is how a repeated measurement is reported: the median, the range
// and the sample count.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	return summary{Median: median(xs), Min: slices.Min(xs), Max: slices.Max(xs), N: len(xs)}
}
