// Package modelio persists trained models, playing the role of the PKL
// files in §IV-D: after offline training the models are serialized, and
// the real-time IDS loads them back for detection. The on-disk size of
// these files is the "Model Size" column of Table II.
package modelio

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"ddoshield/internal/dataset"
	"ddoshield/internal/ml"
	"ddoshield/internal/ml/cnn"
	"ddoshield/internal/ml/forest"
	"ddoshield/internal/ml/kmeans"
)

// envelope tags the concrete model type on the wire.
type envelope struct {
	Kind string
}

// Save serializes a trained classifier alone: what SizeBytes measures. A
// model file on disk is a Bundle (SaveBundleFile), which carries the scaler
// too.
func Save(w io.Writer, c ml.Classifier) error {
	enc := gob.NewEncoder(w)
	return save(enc, c)
}

func save(enc *gob.Encoder, c ml.Classifier) error {
	if v, ok := c.(ml.OffsetView); ok {
		if err := enc.Encode(envelope{Kind: "offset"}); err != nil {
			return fmt.Errorf("modelio: encode envelope: %w", err)
		}
		if err := enc.Encode(v.Offset); err != nil {
			return fmt.Errorf("modelio: encode offset: %w", err)
		}
		return save(enc, v.Inner)
	}
	if err := enc.Encode(envelope{Kind: c.Name()}); err != nil {
		return fmt.Errorf("modelio: encode envelope: %w", err)
	}
	var err error
	switch m := c.(type) {
	case *forest.Forest:
		err = enc.Encode(m)
	case *kmeans.Model:
		err = enc.Encode(m)
	case *cnn.Network:
		err = enc.Encode(m)
	default:
		return fmt.Errorf("modelio: unsupported model %q", c.Name())
	}
	if err != nil {
		return fmt.Errorf("modelio: encode %s: %w", c.Name(), err)
	}
	return nil
}

func load(dec *gob.Decoder) (ml.Classifier, error) {
	var env envelope
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("modelio: decode envelope: %w", err)
	}
	switch env.Kind {
	case "offset":
		var off int
		if err := dec.Decode(&off); err != nil {
			return nil, fmt.Errorf("modelio: decode offset: %w", err)
		}
		if off < 0 || off > maxWidth {
			return nil, fmt.Errorf("modelio: offset %d outside [0, %d]", off, maxWidth)
		}
		inner, err := load(dec)
		if err != nil {
			return nil, err
		}
		if _, ok := inner.(ml.OffsetView); ok {
			return nil, fmt.Errorf("modelio: nested offset")
		}
		return ml.OffsetView{Inner: inner, Offset: off}, nil
	case "rf":
		var m forest.Forest
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("modelio: decode rf: %w", err)
		}
		if err := checkForest(&m); err != nil {
			return nil, err
		}
		return &m, nil
	case "kmeans":
		var m kmeans.Model
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("modelio: decode kmeans: %w", err)
		}
		if err := checkKMeans(&m); err != nil {
			return nil, err
		}
		return &m, nil
	case "cnn":
		var m cnn.Network
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("modelio: decode cnn: %w", err)
		}
		m.Rebind()
		if err := checkCNN(&m); err != nil {
			return nil, err
		}
		return &m, nil
	}
	return nil, fmt.Errorf("modelio: unknown model kind %q", env.Kind)
}

// A model file is user input (cmd/detect opens whatever it is given), so
// load checks every decoded model before anything runs it: each index it
// follows lands inside what it indexes, each class fits the verdict byte
// the IDS keeps per packet, and the cost of one prediction is bounded.
const (
	// maxWidth bounds a model's input vector (the IDS's is NumFeatures).
	maxWidth = 1 << 16
	// maxClasses bounds the class count: ids keeps a class in a byte.
	maxClasses = 256
	// maxCNNActivations and maxCNNMACs bound one CNN forward pass (the
	// paper's network needs a few thousand of each).
	maxCNNActivations = 1 << 22
	maxCNNMACs        = 1 << 26
)

func checkForest(m *forest.Forest) error {
	if m.Features < 1 || m.Features > maxWidth {
		return fmt.Errorf("modelio: rf: %d features outside [1, %d]", m.Features, maxWidth)
	}
	if m.Cfg.Classes < 1 || m.Cfg.Classes > maxClasses {
		return fmt.Errorf("modelio: rf: %d classes outside [1, %d]", m.Cfg.Classes, maxClasses)
	}
	if len(m.TreeList) == 0 {
		return fmt.Errorf("modelio: rf: no trees")
	}
	for ti, t := range m.TreeList {
		if t == nil || len(t.Nodes) == 0 {
			return fmt.Errorf("modelio: rf: tree %d is empty", ti)
		}
		// Trees are stored in pre-order: a child comes after its parent,
		// which also rules out a cycle.
		for i, n := range t.Nodes {
			switch {
			case n.Feature < 0 && (n.Class < 0 || int(n.Class) >= m.Cfg.Classes),
				n.Feature >= 0 && (int(n.Feature) >= m.Features ||
					n.Left <= int32(i) || int(n.Left) >= len(t.Nodes) ||
					n.Right <= int32(i) || int(n.Right) >= len(t.Nodes)):
				return fmt.Errorf("modelio: rf: tree %d node %d is malformed", ti, i)
			}
		}
	}
	return nil
}

func checkKMeans(m *kmeans.Model) error {
	if len(m.Centroids) == 0 || len(m.Labels) != len(m.Centroids) {
		return fmt.Errorf("modelio: kmeans: %d centroids, %d labels", len(m.Centroids), len(m.Labels))
	}
	d := len(m.Centroids[0])
	if d < 1 || d > maxWidth {
		return fmt.Errorf("modelio: kmeans: width %d outside [1, %d]", d, maxWidth)
	}
	for k, c := range m.Centroids {
		if len(c) != d {
			return fmt.Errorf("modelio: kmeans: centroid %d has width %d, want %d", k, len(c), d)
		}
		if l := m.Labels[k]; l < 0 || l >= maxClasses {
			return fmt.Errorf("modelio: kmeans: centroid %d has label %d", k, l)
		}
	}
	return nil
}

func checkCNN(m *cnn.Network) error {
	c := m.Cfg
	for _, v := range []int{c.Inputs, c.Kernel, c.Conv1Filters, c.Conv2Filters, c.Hidden} {
		if v < 1 || v > maxWidth {
			return fmt.Errorf("modelio: cnn: dimension %d outside [1, %d]", v, maxWidth)
		}
	}
	if c.Classes < 1 || c.Classes > maxClasses {
		return fmt.Errorf("modelio: cnn: %d classes outside [1, %d]", c.Classes, maxClasses)
	}
	// The layer lengths New derives: Rebind has recomputed them.
	len1 := c.Inputs - c.Kernel + 1
	len2 := len1/2 - c.Kernel + 1
	pool2 := len2 / 2
	if pool2 < 1 {
		return fmt.Errorf("modelio: cnn: input length %d too short for kernel %d", c.Inputs, c.Kernel)
	}
	flat := pool2 * c.Conv2Filters
	shape := func(w [][]float64, b []float64, rows, cols int) bool {
		if len(w) != rows || len(b) != rows {
			return false
		}
		for _, r := range w {
			if len(r) != cols {
				return false
			}
		}
		return true
	}
	if !shape(m.W1, m.B1, c.Conv1Filters, c.Kernel) ||
		!shape(m.W2, m.B2, c.Conv2Filters, c.Conv1Filters*c.Kernel) ||
		!shape(m.W3, m.B3, c.Hidden, flat) ||
		!shape(m.W4, m.B4, c.Classes, c.Hidden) {
		return fmt.Errorf("modelio: cnn: weights do not match the layer sizes")
	}
	acts := c.Conv1Filters*(len1+len1/2) + c.Conv2Filters*(len2+pool2) + flat + c.Hidden + c.Classes
	macs := c.Conv1Filters*c.Kernel*len1 + c.Conv2Filters*c.Conv1Filters*c.Kernel*len2 + c.Hidden*flat + c.Classes*c.Hidden
	if acts > maxCNNActivations || macs > maxCNNMACs {
		return fmt.Errorf("modelio: cnn: %d activations and %d multiply-adds per prediction, past the bounds", acts, macs)
	}
	return nil
}

// Width is the length of the feature vector c reads, as its file declares
// it; 0 for a classifier this package does not save.
func Width(c ml.Classifier) int {
	switch m := c.(type) {
	case ml.OffsetView:
		return m.Offset + Width(m.Inner)
	case *forest.Forest:
		return m.Features
	case *kmeans.Model:
		if len(m.Centroids) == 0 {
			return 0
		}
		return len(m.Centroids[0])
	case *cnn.Network:
		return m.Cfg.Inputs
	}
	return 0
}

// Bundle pairs a classifier with the feature scaler it was trained behind
// (nil for scale-invariant models): everything the Real-Time IDS Unit
// needs to score live traffic.
type Bundle struct {
	Model  ml.Classifier
	Scaler *dataset.StandardScaler
}

// SaveBundle serializes a detection bundle.
func SaveBundle(w io.Writer, b Bundle) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(envelope{Kind: "bundle"}); err != nil {
		return fmt.Errorf("modelio: encode envelope: %w", err)
	}
	hasScaler := b.Scaler != nil
	if err := enc.Encode(hasScaler); err != nil {
		return fmt.Errorf("modelio: encode scaler flag: %w", err)
	}
	if hasScaler {
		if err := enc.Encode(b.Scaler); err != nil {
			return fmt.Errorf("modelio: encode scaler: %w", err)
		}
	}
	return save(enc, b.Model)
}

// LoadBundle deserializes a detection bundle written by SaveBundle.
func LoadBundle(r io.Reader) (Bundle, error) {
	dec := gob.NewDecoder(r)
	var env envelope
	if err := dec.Decode(&env); err != nil {
		return Bundle{}, fmt.Errorf("modelio: decode envelope: %w", err)
	}
	if env.Kind != "bundle" {
		return Bundle{}, fmt.Errorf("modelio: not a bundle (kind %q)", env.Kind)
	}
	var hasScaler bool
	if err := dec.Decode(&hasScaler); err != nil {
		return Bundle{}, fmt.Errorf("modelio: decode scaler flag: %w", err)
	}
	var b Bundle
	if hasScaler {
		b.Scaler = &dataset.StandardScaler{}
		if err := dec.Decode(b.Scaler); err != nil {
			return Bundle{}, fmt.Errorf("modelio: decode scaler: %w", err)
		}
	}
	m, err := load(dec)
	if err != nil {
		return Bundle{}, err
	}
	if b.Scaler != nil && (len(b.Scaler.Mean) != Width(m) || len(b.Scaler.Std) != Width(m)) {
		return Bundle{}, fmt.Errorf("modelio: scaler of width %d/%d before a model of width %d",
			len(b.Scaler.Mean), len(b.Scaler.Std), Width(m))
	}
	b.Model = m
	return b, nil
}

// SaveBundleFile writes a bundle to path.
func SaveBundleFile(path string, b Bundle) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("modelio: %w", err)
	}
	defer f.Close()
	if err := SaveBundle(f, b); err != nil {
		return err
	}
	return f.Close()
}

// LoadBundleFile reads a bundle from path.
func LoadBundleFile(path string) (Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return Bundle{}, fmt.Errorf("modelio: %w", err)
	}
	defer f.Close()
	return LoadBundle(f)
}

// countingWriter tallies bytes without storing them.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// SizeBytes reports the serialized model size — Table II's "Model Size"
// without touching the filesystem.
func SizeBytes(c ml.Classifier) (int64, error) {
	var cw countingWriter
	if err := Save(&cw, c); err != nil {
		return 0, err
	}
	return cw.n, nil
}
