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

// Save serializes a trained classifier.
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

// Load deserializes a classifier written by Save.
func Load(r io.Reader) (ml.Classifier, error) {
	return load(gob.NewDecoder(r))
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
		inner, err := load(dec)
		if err != nil {
			return nil, err
		}
		return ml.OffsetView{Inner: inner, Offset: off}, nil
	case "rf":
		var m forest.Forest
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("modelio: decode rf: %w", err)
		}
		return &m, nil
	case "kmeans":
		var m kmeans.Model
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("modelio: decode kmeans: %w", err)
		}
		return &m, nil
	case "cnn":
		var m cnn.Network
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("modelio: decode cnn: %w", err)
		}
		m.Rebind()
		return &m, nil
	}
	return nil, fmt.Errorf("modelio: unknown model kind %q", env.Kind)
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

// SaveFile writes the model to path.
func SaveFile(path string, c ml.Classifier) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("modelio: %w", err)
	}
	defer f.Close()
	if err := Save(f, c); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a model from path.
func LoadFile(path string) (ml.Classifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	defer f.Close()
	return Load(f)
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
