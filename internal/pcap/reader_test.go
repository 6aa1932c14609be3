package pcap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"ddoshield/internal/sim"
)

// encodeCapture writes a capture by hand in the given byte order and
// timestamp resolution — the formats other tools write, which the Writer
// (little-endian, nanoseconds) does not.
func encodeCapture(order binary.AppendByteOrder, nanos bool, times []sim.Time, frames [][]byte) []byte {
	magic, tick := MagicMicroseconds, sim.Microsecond
	if nanos {
		magic, tick = MagicNanoseconds, sim.Nanosecond
	}
	var b []byte
	b = order.AppendUint32(b, magic)
	b = order.AppendUint16(b, versionMajor)
	b = order.AppendUint16(b, versionMinor)
	b = append(b, make([]byte, 8)...)
	b = order.AppendUint32(b, DefaultSnapLen)
	b = order.AppendUint32(b, LinkTypeEthernet)
	for i, f := range frames {
		b = order.AppendUint32(b, uint32(times[i]/sim.Second))
		b = order.AppendUint32(b, uint32(times[i]%sim.Second/tick))
		b = order.AppendUint32(b, uint32(len(f)))
		b = order.AppendUint32(b, uint32(len(f)))
		b = append(b, f...)
	}
	return b
}

// TestReaderReadsEveryMagic: microsecond and nanosecond captures, in either
// byte order, read back frame for frame, each at its own resolution.
func TestReaderReadsEveryMagic(t *testing.T) {
	times := []sim.Time{0, 1234567891 * sim.Nanosecond, 65 * sim.Second}
	frames := [][]byte{sampleFrame(10), sampleFrame(100), sampleFrame(1000)}
	for _, order := range []binary.AppendByteOrder{binary.LittleEndian, binary.BigEndian} {
		for _, nanos := range []bool{false, true} {
			r, err := NewReader(bytes.NewReader(encodeCapture(order, nanos, times, frames)))
			if err != nil {
				t.Fatalf("%v nanos=%v: %v", order, nanos, err)
			}
			recs, err := r.ReadAll()
			if err != nil || len(recs) != len(frames) {
				t.Fatalf("%v nanos=%v: %d records, %v", order, nanos, len(recs), err)
			}
			for i, rec := range recs {
				want := times[i]
				if !nanos {
					want = want / sim.Microsecond * sim.Microsecond
				}
				if rec.Time != want || !bytes.Equal(rec.Data, frames[i]) {
					t.Errorf("%v nanos=%v record %d: %v, %d bytes; want %v, %d bytes",
						order, nanos, i, rec.Time, len(rec.Data), want, len(frames[i]))
				}
			}
		}
	}
}

// TestNextReusesRecordBuffer pins the record-lifetime contract: the next
// Next overwrites the Data it returned, and ReadAll's records own theirs.
func TestNextReusesRecordBuffer(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sampleFrame(40), sampleFrame(40)
	b[len(b)-1] ^= 0xff
	for _, f := range [][]byte{a, b} {
		if err := w.WriteFrame(sim.Second, f); err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Next()
	if err != nil || !bytes.Equal(first.Data, a) {
		t.Fatalf("first record: %v", err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Data, b) {
		t.Fatal("Next did not read the second record into the first record's buffer")
	}

	r, err = NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil || len(recs) != 2 || !bytes.Equal(recs[0].Data, a) || !bytes.Equal(recs[1].Data, b) {
		t.Fatalf("ReadAll records share storage or are wrong: %v", err)
	}
}

// FuzzReader feeds arbitrary bytes to the Reader: it must not panic, and
// ReadAll must return what a Next loop that copies each record returns.
func FuzzReader(f *testing.F) {
	times := []sim.Time{sim.Millisecond, 1234567891 * sim.Nanosecond}
	frames := [][]byte{sampleFrame(10), sampleFrame(300)}
	var good bytes.Buffer
	w, err := NewWriter(&good, 0)
	if err != nil {
		f.Fatal(err)
	}
	for i, fr := range frames {
		if err := w.WriteFrame(times[i], fr); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-7])
	f.Add(good.Bytes()[:30])
	for _, order := range []binary.AppendByteOrder{binary.LittleEndian, binary.BigEndian} {
		f.Add(encodeCapture(order, false, times, frames))
		f.Add(encodeCapture(order, true, times, frames))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		all, errAll := r.ReadAll()
		r, err = NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("second open failed: %v", err)
		}
		var loop []Record
		var errLoop error
		for {
			rec, err := r.Next()
			if err != nil {
				if err != io.EOF {
					errLoop = err
				}
				break
			}
			rec.Data = bytes.Clone(rec.Data)
			loop = append(loop, rec)
		}
		if fmt.Sprint(errAll) != fmt.Sprint(errLoop) || len(all) != len(loop) {
			t.Fatalf("ReadAll: %d records, %v; Next loop: %d records, %v", len(all), errAll, len(loop), errLoop)
		}
		for i := range all {
			if all[i].Time != loop[i].Time || all[i].OrigLen != loop[i].OrigLen || !bytes.Equal(all[i].Data, loop[i].Data) {
				t.Fatalf("record %d differs", i)
			}
		}
	})
}
