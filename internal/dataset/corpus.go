package dataset

import (
	"io"

	"ddoshield/internal/features"
	"ddoshield/internal/sim"
)

// Source is a labeled corpus training draws from: a Dataset, or the Corpus
// a testbed collects.
type Source interface {
	Len() int
	Summarize() Summary
	Subsample(n int, rng *sim.RNG) *Dataset
}

// row is one packet of a Corpus: the fields of its features.Basic that
// features.AppendVector reads, the index of its window and its label.
type row struct {
	win     uint32
	length  uint32
	srcPort uint16
	dstPort uint16
	proto   uint8
	flags   uint8
	label   uint8
}

// chunkBits sizes the row chunks: 4096 rows, 64 KiB.
const chunkBits = 12

// Corpus is the labeled corpus the way the feature extractor produces it:
// each closed window's statistics once, and one 16-byte row per packet.
// Every packet of a window shares that window's statistics block, so a
// feature vector is 26 floats but a row is 16 bytes; vectors are built
// only for the rows a caller draws or writes. Rows live in fixed-size
// chunks, so the corpus never copies them to grow. The zero value is an
// empty corpus over features.Names().
type Corpus struct {
	windows []features.Stats
	chunks  [][]row
	n       int
}

// AddWindow appends every packet of w, labeled by label.
func (c *Corpus) AddWindow(w *features.Window, label func(b *features.Basic) int) {
	win := uint32(len(c.windows))
	c.windows = append(c.windows, w.Stats)
	for i := range w.Packets {
		b := &w.Packets[i]
		k := c.n & (1<<chunkBits - 1)
		if k == 0 {
			c.chunks = append(c.chunks, make([]row, 1<<chunkBits))
		}
		c.chunks[len(c.chunks)-1][k] = row{
			win:     win,
			length:  uint32(b.Length),
			srcPort: b.SrcPort,
			dstPort: b.DstPort,
			proto:   b.Proto,
			flags:   b.Flags,
			label:   uint8(label(b)),
		}
		c.n++
	}
}

// Len reports the number of rows.
func (c *Corpus) Len() int { return c.n }

// NumFeatures reports the vector width.
func (c *Corpus) NumFeatures() int { return features.NumFeatures() }

// at returns row i.
func (c *Corpus) at(i int) *row { return &c.chunks[i>>chunkBits][i&(1<<chunkBits-1)] }

// vector appends row i's feature vector to dst and returns it with the
// row's label.
func (c *Corpus) vector(dst []float64, i int) ([]float64, int) {
	r := c.at(i)
	b := features.Basic{
		Proto:   r.proto,
		SrcPort: r.srcPort,
		DstPort: r.dstPort,
		Length:  int(r.length),
		Flags:   r.flags,
	}
	return features.AppendVector(dst, &b, &c.windows[r.win]), int(r.label)
}

// Summarize counts classes.
func (c *Corpus) Summarize() Summary {
	s := Summary{Total: c.n}
	for i := 0; i < c.n; i++ {
		if c.at(i).label == Malicious {
			s.Malicious++
		} else {
			s.Benign++
		}
	}
	return s
}

// Subsample draws what Dataset.Subsample draws from the same rows: every
// row when n ≥ Len (and nothing from rng), otherwise rng.Perm(Len)[:n].
// It builds the chosen rows' vectors, in that order.
func (c *Corpus) Subsample(n int, rng *sim.RNG) *Dataset {
	var idx []int
	if n >= c.n {
		idx = make([]int, c.n)
		for i := range idx {
			idx[i] = i
		}
	} else {
		idx = rng.Perm(c.n)[:n]
	}
	out := &Dataset{Names: features.Names(), Samples: make([]Sample, len(idx))}
	for k, i := range idx {
		s := &out.Samples[k]
		s.X, s.Y = c.vector(make([]float64, 0, c.NumFeatures()), i)
	}
	return out
}

// WriteCSV writes the bytes Dataset.WriteCSV writes for the same rows.
func (c *Corpus) WriteCSV(w io.Writer) error {
	cw := newCSVWriter(w, features.Names())
	x := make([]float64, 0, c.NumFeatures())
	for i := 0; i < c.n; i++ {
		var y int
		x, y = c.vector(x[:0], i)
		cw.row(x, y)
	}
	return cw.flush()
}
