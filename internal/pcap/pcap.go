// Package pcap reads and writes libpcap capture files and provides capture
// taps for the simulated network. DDoShield-IoT uses captures both as the
// training datasets for the IDS models and for offline inspection with
// standard tools (the paper mentions Wireshark); files written here use the
// standard magic, version and Ethernet link type, so they are readable by
// any pcap consumer.
package pcap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"ddoshield/internal/netsim"
	"ddoshield/internal/sim"
)

const (
	// MagicMicroseconds is the classic little-endian pcap magic.
	MagicMicroseconds uint32 = 0xa1b2c3d4
	versionMajor      uint16 = 2
	versionMinor      uint16 = 4
	// LinkTypeEthernet is DLT_EN10MB.
	LinkTypeEthernet uint32 = 1
	// DefaultSnapLen is the default capture length.
	DefaultSnapLen uint32 = 65535
)

// Record is one captured frame.
type Record struct {
	// Time is the simulated capture instant.
	Time sim.Time
	// Data is the captured frame (possibly truncated to snaplen).
	Data []byte
	// OrigLen is the frame's original on-wire length.
	OrigLen int
}

// Writer streams records into a pcap file.
type Writer struct {
	w       io.Writer
	snapLen uint32
	wrote   uint64
	err     error
}

// NewWriter writes the pcap global header and returns a record writer.
// snapLen of 0 means DefaultSnapLen.
func NewWriter(w io.Writer, snapLen uint32) (*Writer, error) {
	if snapLen == 0 {
		snapLen = DefaultSnapLen
	}
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MagicMicroseconds)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone=0, sigfigs=0 already zero.
	binary.LittleEndian.PutUint32(hdr[16:20], snapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], LinkTypeEthernet)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: write header: %w", err)
	}
	return &Writer{w: w, snapLen: snapLen}, nil
}

// WriteFrame captures one frame at simulated time t.
func (w *Writer) WriteFrame(t sim.Time, frame []byte) error {
	if w.err != nil {
		return w.err
	}
	capLen := len(frame)
	if uint32(capLen) > w.snapLen {
		capLen = int(w.snapLen)
	}
	usec := int64(t) / 1000
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(usec/1_000_000))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(usec%1_000_000))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(capLen))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(frame)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		w.err = fmt.Errorf("pcap: write record header: %w", err)
		return w.err
	}
	if _, err := w.w.Write(frame[:capLen]); err != nil {
		w.err = fmt.Errorf("pcap: write record data: %w", err)
		return w.err
	}
	w.wrote++
	return nil
}

// Count reports records written so far.
func (w *Writer) Count() uint64 { return w.wrote }

// Tap returns a netsim.Tap that captures every observed frame into the
// writer. Write errors are sticky and silently stop the capture.
func (w *Writer) Tap() netsim.Tap {
	return func(t sim.Time, raw []byte) {
		_ = w.WriteFrame(t, raw)
	}
}

// Reader iterates over the records of a pcap file.
type Reader struct {
	r       io.Reader
	snapLen uint32
	order   binary.ByteOrder
	// hdr is Next's record-header scratch: a local would escape through
	// the io.Reader call and cost an allocation per record.
	hdr [16]byte
}

// readBufSize is the read-ahead NewReader puts in front of a source: one
// read(2) per 64 KiB of capture instead of two per record.
const readBufSize = 64 << 10

// NewReader validates the global header and returns a record reader. Both
// byte orders are accepted. Unless r already is a *bufio.Reader it is read
// through one, so the Reader may consume r past the records it has returned.
func NewReader(r io.Reader) (*Reader, error) {
	if _, ok := r.(*bufio.Reader); !ok {
		r = bufio.NewReaderSize(r, readBufSize)
	}
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: read header: %w", err)
	}
	var order binary.ByteOrder
	switch magic := binary.LittleEndian.Uint32(hdr[0:4]); magic {
	case MagicMicroseconds:
		order = binary.LittleEndian
	case 0xd4c3b2a1:
		order = binary.BigEndian
	default:
		return nil, fmt.Errorf("pcap: bad magic %#08x", magic)
	}
	if lt := order.Uint32(hdr[20:24]); lt != LinkTypeEthernet {
		return nil, fmt.Errorf("pcap: unsupported link type %d", lt)
	}
	return &Reader{r: r, snapLen: order.Uint32(hdr[16:20]), order: order}, nil
}

// Next returns the next record, or io.EOF at end of file.
func (r *Reader) Next() (Record, error) {
	hdr := r.hdr[:]
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return Record{}, err
	}
	sec := r.order.Uint32(hdr[0:4])
	usec := r.order.Uint32(hdr[4:8])
	capLen := r.order.Uint32(hdr[8:12])
	origLen := r.order.Uint32(hdr[12:16])
	if capLen > r.snapLen+65536 {
		return Record{}, fmt.Errorf("pcap: implausible record length %d", capLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Record{}, fmt.Errorf("pcap: truncated record: %w", err)
	}
	t := sim.Time(int64(sec)*int64(sim.Second) + int64(usec)*int64(sim.Microsecond))
	return Record{Time: t, Data: data, OrigLen: int(origLen)}, nil
}

// ReadAll drains the reader into a slice.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// Buffer is an in-memory capture: a Tap that retains decode-ready records.
// The testbed uses it to hand a finished run's traffic to the dataset
// builder without round-tripping through the filesystem.
type Buffer struct {
	records []Record
	limit   int
}

// NewBuffer returns an in-memory capture retaining at most limit records
// (0 = unlimited).
func NewBuffer(limit int) *Buffer { return &Buffer{limit: limit} }

// Tap returns a netsim.Tap that appends frames to the buffer.
func (b *Buffer) Tap() netsim.Tap {
	return func(t sim.Time, raw []byte) {
		if b.limit > 0 && len(b.records) >= b.limit {
			return
		}
		data := make([]byte, len(raw))
		copy(data, raw)
		b.records = append(b.records, Record{Time: t, Data: data, OrigLen: len(raw)})
	}
}

// Records returns the captured records (not a copy; treat as read-only).
func (b *Buffer) Records() []Record { return b.records }

// Len reports the number of captured records.
func (b *Buffer) Len() int { return len(b.records) }

// Reset discards all captured records.
func (b *Buffer) Reset() { b.records = nil }

// WriteTo dumps the buffer as a pcap stream.
func (b *Buffer) WriteTo(w io.Writer) (int64, error) {
	pw, err := NewWriter(w, 0)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, rec := range b.records {
		if err := pw.WriteFrame(rec.Time, rec.Data); err != nil {
			return n, err
		}
		n += int64(16 + len(rec.Data))
	}
	return n + 24, nil
}
