package dataset

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"

	"ddoshield/internal/features"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// randomCorpus collects windows of random packets and statistics into a
// Corpus and, beside it, materializes every row the way a Dataset holds
// it: one features.AppendVector per packet.
func randomCorpus(seed int64, windows int) (*Corpus, *Dataset) {
	rng := sim.NewRNG(seed)
	var c Corpus
	d := New(features.Names())
	protos := []uint8{packet.ProtoTCP, packet.ProtoUDP, 1}
	label := func(*features.Basic) int { return rng.Intn(2) }
	for w := 0; w < windows; w++ {
		win := features.Window{Stats: features.Stats{
			PacketCount:    rng.Intn(5000),
			ByteCount:      rng.Intn(1 << 24),
			MeanPacketLen:  rng.Uniform(40, 1500),
			DstPortEntropy: rng.Uniform(0, 8),
			SrcAddrEntropy: rng.Uniform(0, 10),
			UniqueDstPorts: rng.Intn(100),
			SynNoAckRatio:  rng.Uniform(0, 900),
			SeqStd:         rng.NormFloat64(),
			UDPFraction:    rng.Uniform(0, 1),
		}}
		if w == windows/2 {
			win.Stats.MeanPacketLen = math.Copysign(0, -1)
		}
		for p := rng.Intn(300); p > 0; p-- {
			win.Packets = append(win.Packets, features.Basic{
				Time:    sim.Time(w) * sim.Second,
				Proto:   protos[rng.Intn(len(protos))],
				SrcPort: uint16(rng.Intn(1 << 16)),
				DstPort: uint16(rng.Intn(1 << 16)),
				Length:  rng.Intn(70000), // past 16 bits too
				Flags:   uint8(rng.Intn(1 << 8)),
				Seq:     rng.Uint32(),
			})
		}
		c.AddWindow(&win, func(b *features.Basic) int {
			y := label(b)
			d.Add(features.AppendVector(nil, b, &win.Stats), y)
			return y
		})
	}
	return &c, d
}

// sameSamples reports whether two datasets hold the same names, labels and
// feature bits, in order.
func sameSamples(t *testing.T, got, want *Dataset) {
	t.Helper()
	if !slices.Equal(got.Names, want.Names) || got.Len() != want.Len() {
		t.Fatalf("%d samples over %q, want %d over %q", got.Len(), got.Names, want.Len(), want.Names)
	}
	for i := range want.Samples {
		g, w := got.Samples[i], want.Samples[i]
		same := g.Y == w.Y && len(g.X) == len(w.X)
		for j := 0; same && j < len(w.X); j++ {
			same = math.Float64bits(g.X[j]) == math.Float64bits(w.X[j])
		}
		if !same {
			t.Fatalf("sample %d = %v/%d, want %v/%d", i, g.X, g.Y, w.X, w.Y)
		}
	}
}

// TestCorpusMatchesDataset: every method a Corpus shares with a Dataset
// answers what the Dataset of its materialized rows answers, and Subsample
// draws as many values from the rng.
func TestCorpusMatchesDataset(t *testing.T) {
	c, d := randomCorpus(7, 40)
	if c.Len() != d.Len() || c.Len() < 1000 {
		t.Fatalf("corpus has %d rows, materialized %d", c.Len(), d.Len())
	}
	if c.NumFeatures() != d.NumFeatures() {
		t.Fatalf("NumFeatures = %d, want %d", c.NumFeatures(), d.NumFeatures())
	}
	if got, want := c.Summarize(), d.Summarize(); got != want {
		t.Fatalf("Summarize = %v, want %v", got, want)
	}
	for _, n := range []int{c.Len() / 3, c.Len(), c.Len() + 5} {
		rc, rd := sim.NewRNG(int64(n)), sim.NewRNG(int64(n))
		sameSamples(t, c.Subsample(n, rc), d.Subsample(n, rd))
		if a, b := rc.Int63(), rd.Int63(); a != b {
			t.Fatalf("Subsample(%d) left the rng at another draw (%d vs %d)", n, a, b)
		}
	}
	var got, want bytes.Buffer
	if err := c.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteCSV wrote %d bytes, the materialized rows %d", got.Len(), want.Len())
	}
	for name, write := range map[string]func(io.Writer) error{"Corpus": c.WriteCSV, "Dataset": d.WriteCSV} {
		if err := write(failingWriter{}); err == nil {
			t.Fatalf("%s.WriteCSV to a failing writer returned nil", name)
		}
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestCorpusHeapPerRow is the corpus's memory budget: a row is 16 bytes in
// 64 KiB chunks, and a window's statistics block is shared by its rows, so
// 200 000 rows over 200 windows hold at most 20 bytes of live heap a row.
// A row grown past 16 bytes, or a vector kept per row (208 bytes), fails it.
func TestCorpusHeapPerRow(t *testing.T) {
	const windows, perWindow = 200, 1000
	win := features.Window{Packets: make([]features.Basic, perWindow)}
	for i := range win.Packets {
		win.Packets[i] = features.Basic{Proto: packet.ProtoTCP, SrcPort: uint16(i), DstPort: 80, Length: 60 + i}
	}
	label := func(*features.Basic) int { return Malicious }
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	c := new(Corpus)
	for w := 0; w < windows; w++ {
		win.Stats.PacketCount = w
		c.AddWindow(&win, label)
	}
	perRow := float64(heap()-before) / float64(c.Len())
	runtime.KeepAlive(c)
	t.Logf("corpus heap: %.2f B/row over %d rows", perRow, c.Len())
	if perRow > 20 {
		t.Fatalf("corpus holds %.2f B/row, budget 20", perRow)
	}
}
