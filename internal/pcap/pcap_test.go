package pcap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"

	"ddoshield/internal/netsim"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

func sampleFrame(n int) []byte {
	eth := packet.Ethernet{Dst: packet.MACFromUint64(1), Src: packet.MACFromUint64(2), Type: packet.EtherTypeIPv4}
	b := eth.Marshal(nil)
	for i := 0; i < n; i++ {
		b = append(b, byte(i))
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{sampleFrame(10), sampleFrame(100), sampleFrame(1000)}
	times := []sim.Time{0, 1500 * sim.Millisecond, 1234567891 * sim.Nanosecond}
	for i, f := range frames {
		if err := w.WriteFrame(times[i], f); err != nil {
			t.Fatal(err)
		}
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records", len(recs))
	}
	for i, rec := range recs {
		if !bytes.Equal(rec.Data, frames[i]) {
			t.Fatalf("record %d data mismatch", i)
		}
		if rec.OrigLen != len(frames[i]) {
			t.Fatalf("record %d OrigLen = %d", i, rec.OrigLen)
		}
		// Timestamps survive at the simulator's nanosecond resolution.
		if got, want := rec.Time, times[i]; got != want {
			t.Fatalf("record %d time = %v, want %v", i, rec.Time, times[i])
		}
	}
}

func TestGlobalHeaderFormat(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, 4096); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()
	if len(hdr) != 24 {
		t.Fatalf("header length = %d", len(hdr))
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != MagicNanoseconds {
		t.Fatal("bad magic")
	}
	if binary.LittleEndian.Uint16(hdr[4:6]) != 2 || binary.LittleEndian.Uint16(hdr[6:8]) != 4 {
		t.Fatal("bad version")
	}
	if binary.LittleEndian.Uint32(hdr[16:20]) != 4096 {
		t.Fatal("bad snaplen")
	}
	if binary.LittleEndian.Uint32(hdr[20:24]) != LinkTypeEthernet {
		t.Fatal("bad linktype")
	}
}

func TestSnapLenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 64)
	if err != nil {
		t.Fatal(err)
	}
	frame := sampleFrame(200)
	if err := w.WriteFrame(sim.Second, frame); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Data) != 64 {
		t.Fatalf("captured %d bytes, want snaplen 64", len(rec.Data))
	}
	if rec.OrigLen != len(frame) {
		t.Fatalf("OrigLen = %d, want %d", rec.OrigLen, len(frame))
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	junk := make([]byte, 24)
	if _, err := NewReader(bytes.NewReader(junk)); err == nil {
		t.Fatal("accepted junk header")
	}
}

func TestReaderEOFCleanly(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, 0); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next on empty capture = %v, want EOF", err)
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(0, sampleFrame(100)); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestBufferTapCapturesLiveTraffic(t *testing.T) {
	s := sim.NewScheduler()
	net := netsim.New(s)
	a := net.NewNode("a").AddNIC()
	b := net.NewNode("b").AddNIC()
	l := net.Connect(a, b, netsim.LinkConfig{})
	b.SetHandler(func([]byte) {})
	cap := NewBuffer(0)
	l.AddTap(cap.Tap())
	f := sampleFrame(50)
	a.Send(f)
	a.Send(f)
	s.Drain()
	if cap.Len() != 2 {
		t.Fatalf("captured %d frames", cap.Len())
	}
	if cap.records[0].Time <= 0 {
		t.Fatal("capture timestamp missing")
	}
}

func TestBufferLimit(t *testing.T) {
	cap := NewBuffer(2)
	tap := cap.Tap()
	for i := 0; i < 5; i++ {
		tap(sim.Time(i), sampleFrame(10), trace.Context{})
	}
	if cap.Len() != 2 {
		t.Fatalf("limited buffer holds %d", cap.Len())
	}
}

func TestBufferWriteTo(t *testing.T) {
	cap := NewBuffer(0)
	tap := cap.Tap()
	tap(sim.Second, sampleFrame(30), trace.Context{})
	tap(2*sim.Second, sampleFrame(40), trace.Context{})
	var buf bytes.Buffer
	if _, err := cap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || len(recs[1].Data) != 40+packet.EthernetHeaderLen {
		t.Fatalf("round trip through WriteTo failed: %d records", len(recs))
	}
}

// failWriter errors after n bytes to exercise sticky error handling.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriterStickyError(t *testing.T) {
	w, err := NewWriter(&failWriter{n: 30}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(0, sampleFrame(100)); err == nil {
		t.Fatal("expected write error")
	}
	if err := w.WriteFrame(0, sampleFrame(100)); err == nil {
		t.Fatal("sticky error not preserved")
	}
}

// drain reads src to its end and renders everything a caller can observe:
// the records and the error that ended the stream.
func drain(src io.Reader) string {
	r, err := NewReader(src)
	if err != nil {
		return "open: " + err.Error()
	}
	recs, err := r.ReadAll()
	return fmt.Sprintf("%d records %v, then %v", len(recs), recs, err)
}

// TestReaderSameThroughEverySource pins that the read-ahead NewReader adds
// changes no record and no error: a bare file (the source it is for), an
// in-memory reader and a reader that hands out one byte per call all end a
// capture the same way, whichever way the capture ends.
func TestReaderSameThroughEverySource(t *testing.T) {
	var good bytes.Buffer
	w, err := NewWriter(&good, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Enough records that the file spans several read-ahead buffers.
	for i := 0; i < 600; i++ {
		if err := w.WriteFrame(sim.Time(i)*sim.Millisecond, sampleFrame(i%700)); err != nil {
			t.Fatal(err)
		}
	}
	if good.Len() < 3*readBufSize {
		t.Fatalf("capture of %d bytes does not cross the %d-byte buffer", good.Len(), readBufSize)
	}
	huge := append([]byte(nil), good.Bytes()...)
	var rec [16]byte
	binary.LittleEndian.PutUint32(rec[8:12], 1<<30)
	huge = append(huge, rec[:]...)

	cases := map[string][]byte{
		"clean EOF":          good.Bytes(),
		"truncated header":   good.Bytes()[:good.Len()-len(sampleFrame(599%700))-9],
		"truncated body":     good.Bytes()[:good.Len()-5],
		"implausible length": huge,
		"no global header":   good.Bytes()[:10],
	}
	for name, data := range cases {
		path := filepath.Join(t.TempDir(), "c.pcap")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		fromFile := drain(f)
		f.Close()
		fromMemory := drain(bytes.NewReader(data))
		byteByByte := drain(iotest.OneByteReader(bytes.NewReader(data)))
		if fromFile != fromMemory || fromFile != byteByByte {
			t.Errorf("%s: sources disagree\n file:   %.200s\n memory: %.200s\n 1-byte: %.200s",
				name, fromFile, fromMemory, byteByByte)
		}
	}

	// And the outcomes themselves, once: they are the Reader's contract.
	want := map[string]string{
		"clean EOF":          "<nil>",
		"truncated header":   "<nil>",
		"truncated body":     "pcap: truncated record: unexpected EOF",
		"implausible length": "pcap: implausible record length 1073741824",
	}
	for name, tail := range want {
		r, err := NewReader(bytes.NewReader(cases[name]))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := r.ReadAll()
		if got := fmt.Sprint(err); got != tail {
			t.Errorf("%s: ended with %q, want %q", name, got, tail)
		}
		wantRecs := 600
		if name == "truncated header" || name == "truncated body" {
			wantRecs = 599
		}
		if len(recs) != wantRecs {
			t.Errorf("%s: %d records, want %d", name, len(recs), wantRecs)
		}
	}
}
