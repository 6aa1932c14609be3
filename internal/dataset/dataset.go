// Package dataset assembles the labeled training/evaluation data the
// testbed produces: per-packet feature vectors with benign/malicious
// ground-truth labels, plus the splitting, scaling and CSV machinery the
// ML pipeline needs. The paper's 10-minute generation run yields a
// "nearly balanced" corpus (3,012,885 malicious vs 2,243,634 benign
// packets); the Summary type reports the same balance statistics.
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"ddoshield/internal/sim"
)

// Labels.
const (
	// Benign marks legitimate traffic.
	Benign = 0
	// Malicious marks botnet traffic (scan, C2, flood).
	Malicious = 1
)

// Sample is one labeled feature vector.
type Sample struct {
	X []float64
	Y int
}

// Dataset is an ordered labeled sample collection with a feature schema.
type Dataset struct {
	// Names are the feature names, one per vector column.
	Names   []string
	Samples []Sample
}

// New returns an empty dataset over the given schema.
func New(names []string) *Dataset {
	ns := make([]string, len(names))
	copy(ns, names)
	return &Dataset{Names: ns}
}

// Add appends a sample (the vector is retained, not copied).
func (d *Dataset) Add(x []float64, y int) {
	d.Samples = append(d.Samples, Sample{X: x, Y: y})
}

// Len reports the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// NumFeatures reports the vector width.
func (d *Dataset) NumFeatures() int { return len(d.Names) }

// Summary reports per-class counts and balance.
type Summary struct {
	Total     int
	Benign    int
	Malicious int
}

// BalanceRatio is the minority/majority class ratio in [0,1].
func (s Summary) BalanceRatio() float64 {
	if s.Benign == 0 || s.Malicious == 0 {
		return 0
	}
	lo, hi := s.Benign, s.Malicious
	if lo > hi {
		lo, hi = hi, lo
	}
	return float64(lo) / float64(hi)
}

// String renders the summary in the paper's reporting style.
func (s Summary) String() string {
	return fmt.Sprintf("%d samples (%d malicious, %d benign, balance %.2f)",
		s.Total, s.Malicious, s.Benign, s.BalanceRatio())
}

// Summarize counts classes.
func (d *Dataset) Summarize() Summary {
	var s Summary
	s.Total = len(d.Samples)
	for i := range d.Samples {
		if d.Samples[i].Y == Malicious {
			s.Malicious++
		} else {
			s.Benign++
		}
	}
	return s
}

// Shuffle permutes samples in place.
func (d *Dataset) Shuffle(rng *sim.RNG) {
	rng.Shuffle(len(d.Samples), func(i, j int) {
		d.Samples[i], d.Samples[j] = d.Samples[j], d.Samples[i]
	})
}

// Split partitions into train/test by fraction (of samples going to
// train), preserving order. Shuffle first for a random split.
func (d *Dataset) Split(trainFrac float64) (train, test *Dataset) {
	if trainFrac < 0 {
		trainFrac = 0
	}
	if trainFrac > 1 {
		trainFrac = 1
	}
	n := int(float64(len(d.Samples)) * trainFrac)
	train = &Dataset{Names: d.Names, Samples: d.Samples[:n]}
	test = &Dataset{Names: d.Names, Samples: d.Samples[n:]}
	return train, test
}

// Subsample returns a dataset of at most n samples drawn without
// replacement.
func (d *Dataset) Subsample(n int, rng *sim.RNG) *Dataset {
	if n >= len(d.Samples) {
		out := &Dataset{Names: d.Names, Samples: make([]Sample, len(d.Samples))}
		copy(out.Samples, d.Samples)
		return out
	}
	perm := rng.Perm(len(d.Samples))
	out := &Dataset{Names: d.Names, Samples: make([]Sample, 0, n)}
	for _, idx := range perm[:n] {
		out.Samples = append(out.Samples, d.Samples[idx])
	}
	return out
}

// XY splits the dataset into a feature matrix and label vector (views, not
// copies, of the sample vectors).
func (d *Dataset) XY() ([][]float64, []int) {
	xs := make([][]float64, len(d.Samples))
	ys := make([]int, len(d.Samples))
	for i := range d.Samples {
		xs[i] = d.Samples[i].X
		ys[i] = d.Samples[i].Y
	}
	return xs, ys
}

// StandardScaler centers features to zero mean and unit variance — the
// preprocessing both K-Means (distance-based) and the CNN (gradient-based)
// require to treat features on very different scales (ports vs counts vs
// entropies) equitably.
type StandardScaler struct {
	Mean []float64
	Std  []float64
}

// FitStandard learns per-feature mean and standard deviation.
func FitStandard(d *Dataset) *StandardScaler {
	nf := d.NumFeatures()
	sc := &StandardScaler{Mean: make([]float64, nf), Std: make([]float64, nf)}
	n := float64(len(d.Samples))
	if n == 0 {
		for i := range sc.Std {
			sc.Std[i] = 1
		}
		return sc
	}
	for i := range d.Samples {
		for j, v := range d.Samples[i].X {
			sc.Mean[j] += v
		}
	}
	for j := range sc.Mean {
		sc.Mean[j] /= n
	}
	for i := range d.Samples {
		for j, v := range d.Samples[i].X {
			dv := v - sc.Mean[j]
			sc.Std[j] += dv * dv
		}
	}
	for j := range sc.Std {
		sc.Std[j] = math.Sqrt(sc.Std[j] / n)
		if sc.Std[j] < 1e-9 {
			sc.Std[j] = 1 // constant feature: leave centered at 0
		}
	}
	return sc
}

// Transform scales x in place and returns it.
func (sc *StandardScaler) Transform(x []float64) []float64 {
	for j := range x {
		x[j] = (x[j] - sc.Mean[j]) / sc.Std[j]
	}
	return x
}

// Transformed returns a scaled copy of x.
func (sc *StandardScaler) Transformed(x []float64) []float64 {
	out := make([]float64, len(x))
	for j := range x {
		out[j] = (x[j] - sc.Mean[j]) / sc.Std[j]
	}
	return out
}

// Apply scales every sample of d in place.
func (sc *StandardScaler) Apply(d *Dataset) {
	for i := range d.Samples {
		sc.Transform(d.Samples[i].X)
	}
}

// WriteCSV emits "feature1,...,featureN,label" rows.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := newCSVWriter(w, d.Names)
	for i := range d.Samples {
		cw.row(d.Samples[i].X, d.Samples[i].Y)
	}
	return cw.flush()
}

// csvWriter is the one writer of the CSV format ReadCSV parses. A write
// error sticks in the bufio.Writer, which then drops every later write,
// and flush reports it.
type csvWriter struct {
	bw  *bufio.Writer
	buf []byte
}

// newCSVWriter writes the header line.
func newCSVWriter(w io.Writer, names []string) *csvWriter {
	cw := &csvWriter{bw: bufio.NewWriter(w)}
	for _, n := range names {
		cw.buf = append(append(cw.buf, n...), ',')
	}
	_, _ = cw.bw.Write(append(cw.buf, "label\n"...)) // flush reports it
	return cw
}

// row writes one sample.
func (cw *csvWriter) row(x []float64, y int) {
	b := cw.buf[:0]
	for _, v := range x {
		b = append(strconv.AppendFloat(b, v, 'g', -1, 64), ',')
	}
	cw.buf = append(strconv.AppendInt(b, int64(y), 10), '\n')
	_, _ = cw.bw.Write(cw.buf) // flush reports it
}

func (cw *csvWriter) flush() error {
	if err := cw.bw.Flush(); err != nil {
		return fmt.Errorf("dataset: write csv: %w", err)
	}
	return nil
}

// ReadCSV parses the WriteCSV format. A label other than Benign or
// Malicious, or a feature that is NaN or infinite, is an error naming its
// line.
func ReadCSV(r io.Reader) (*Dataset, error) {
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 1<<20), 1<<20)
	if !br.Scan() {
		return nil, fmt.Errorf("dataset: read csv: missing header")
	}
	header := strings.Split(strings.TrimSpace(br.Text()), ",")
	if len(header) < 2 || header[len(header)-1] != "label" {
		return nil, fmt.Errorf("dataset: read csv: bad header")
	}
	d := New(header[:len(header)-1])
	line := 1
	for br.Scan() {
		line++
		text := strings.TrimSpace(br.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != len(header) {
			return nil, fmt.Errorf("dataset: read csv line %d: %d fields, want %d", line, len(fields), len(header))
		}
		x := make([]float64, len(fields)-1)
		for j := 0; j < len(fields)-1; j++ {
			v, err := strconv.ParseFloat(fields[j], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: read csv line %d: %w", line, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("dataset: read csv line %d: feature %q is %v, want a finite value", line, header[j], v)
			}
			x[j] = v
		}
		y, err := strconv.Atoi(fields[len(fields)-1])
		if err != nil {
			return nil, fmt.Errorf("dataset: read csv line %d: %w", line, err)
		}
		if y != Benign && y != Malicious {
			return nil, fmt.Errorf("dataset: read csv line %d: label %d, want %d (benign) or %d (malicious)", line, y, Benign, Malicious)
		}
		d.Add(x, y)
	}
	return d, br.Err()
}
