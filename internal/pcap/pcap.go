// Package pcap reads and writes libpcap capture files and provides capture
// taps for the simulated network. DDoShield-IoT uses captures both as the
// training datasets for the IDS models and for offline inspection with
// standard tools (the paper mentions Wireshark); files written here use the
// standard magic, version and Ethernet link type, so they are readable by
// any pcap consumer. Files are written with nanosecond timestamps, so a
// capture keeps the simulator's clock exactly; the classic microsecond
// format is read as well.
package pcap

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"ddoshield/internal/netsim"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

const (
	// MagicMicroseconds is the classic pcap magic: record timestamps are
	// seconds and microseconds.
	MagicMicroseconds uint32 = 0xa1b2c3d4
	// MagicNanoseconds is the nanosecond-resolution pcap magic: record
	// timestamps are seconds and nanoseconds. The Writer uses it.
	MagicNanoseconds uint32 = 0xa1b23c4d
	versionMajor     uint16 = 2
	versionMinor     uint16 = 4
	// LinkTypeEthernet is DLT_EN10MB.
	LinkTypeEthernet uint32 = 1
	// DefaultSnapLen is the default capture length.
	DefaultSnapLen uint32 = 65535
	// maxRecordLen bounds a record body whatever the header's snaplen
	// claims (libpcap's own ceiling), so a hostile header cannot make the
	// Reader allocate gigabytes.
	maxRecordLen = 262144
)

// Record is one captured frame.
type Record struct {
	// Time is the simulated capture instant.
	Time sim.Time
	// Data is the captured frame (possibly truncated to snaplen). A Record
	// returned by Reader.Next shares Data with the Reader: it is valid until
	// the next call to Next, as with bufio.Scanner.Bytes.
	Data []byte
	// OrigLen is the frame's original on-wire length.
	OrigLen int
}

// Writer streams records into a pcap file.
type Writer struct {
	w       io.Writer
	snapLen uint32
	err     error
}

// NewWriter writes the pcap global header and returns a record writer.
// snapLen of 0 means DefaultSnapLen.
func NewWriter(w io.Writer, snapLen uint32) (*Writer, error) {
	if snapLen == 0 {
		snapLen = DefaultSnapLen
	}
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], MagicNanoseconds)
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
	ns := int64(t)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(ns/int64(sim.Second)))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(ns%int64(sim.Second)))
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
	return nil
}

// Tap returns a netsim.Tap that captures every observed frame into the
// writer. Write errors are sticky and silently stop the capture.
func (w *Writer) Tap() netsim.Tap {
	return func(t sim.Time, raw []byte, _ trace.Context) {
		_ = w.WriteFrame(t, raw)
	}
}

// Reader iterates over the records of a pcap file.
type Reader struct {
	r      io.Reader
	maxLen uint32
	order  binary.ByteOrder
	// tick is the unit of a record's sub-second timestamp field.
	tick sim.Time
	// hdr is Next's record-header scratch: a local would escape through
	// the io.Reader call and cost an allocation per record.
	hdr [16]byte
	// buf holds the body of the record Next returned last.
	buf []byte
}

// readBufSize is the read-ahead NewReader puts in front of a source: one
// read(2) per 64 KiB of capture instead of two per record.
const readBufSize = 64 << 10

// NewReader validates the global header and returns a record reader. Both
// timestamp resolutions (microseconds and nanoseconds) are accepted, each in
// either byte order. Unless r already is a *bufio.Reader it is read through
// one, so the Reader may consume r past the records it has returned.
func NewReader(r io.Reader) (*Reader, error) {
	if _, ok := r.(*bufio.Reader); !ok {
		r = bufio.NewReaderSize(r, readBufSize)
	}
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: read header: %w", err)
	}
	rd := &Reader{r: r, order: binary.LittleEndian}
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	if magic != MagicMicroseconds && magic != MagicNanoseconds {
		rd.order, magic = binary.BigEndian, bits.ReverseBytes32(magic)
	}
	switch magic {
	case MagicMicroseconds:
		rd.tick = sim.Microsecond
	case MagicNanoseconds:
		rd.tick = sim.Nanosecond
	default:
		return nil, fmt.Errorf("pcap: bad magic %#08x", binary.LittleEndian.Uint32(hdr[0:4]))
	}
	if lt := rd.order.Uint32(hdr[20:24]); lt != LinkTypeEthernet {
		return nil, fmt.Errorf("pcap: unsupported link type %d", lt)
	}
	rd.maxLen = uint32(min(uint64(rd.order.Uint32(hdr[16:20]))+65536, maxRecordLen))
	return rd, nil
}

// Next returns the next record, or io.EOF at end of file. The record's Data
// is read into a buffer the Reader reuses: it is valid until the next call
// to Next. Callers that keep records use ReadAll, or copy Data.
func (r *Reader) Next() (Record, error) {
	hdr := r.hdr[:]
	if _, err := io.ReadFull(r.r, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return Record{}, err
	}
	sec := r.order.Uint32(hdr[0:4])
	frac := r.order.Uint32(hdr[4:8])
	capLen := r.order.Uint32(hdr[8:12])
	origLen := r.order.Uint32(hdr[12:16])
	if capLen > r.maxLen {
		return Record{}, fmt.Errorf("pcap: implausible record length %d", capLen)
	}
	if cap(r.buf) < int(capLen) {
		r.buf = make([]byte, capLen)
	}
	data := r.buf[:capLen]
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Record{}, fmt.Errorf("pcap: truncated record: %w", err)
	}
	t := sim.Time(sec)*sim.Second + sim.Time(frac)*r.tick
	return Record{Time: t, Data: data, OrigLen: int(origLen)}, nil
}

// ReadAll drains the reader into a slice of records that own their Data.
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
		rec.Data = bytes.Clone(rec.Data)
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
	return func(t sim.Time, raw []byte, _ trace.Context) {
		if b.limit > 0 && len(b.records) >= b.limit {
			return
		}
		data := make([]byte, len(raw))
		copy(data, raw)
		b.records = append(b.records, Record{Time: t, Data: data, OrigLen: len(raw)})
	}
}

// Len reports the number of captured records.
func (b *Buffer) Len() int { return len(b.records) }

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
