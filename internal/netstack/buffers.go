package netstack

import "math/bits"

// Send-buffer recycling. A connection's send buffer comes from its host and
// goes back the moment its last byte is acknowledged, so a host serving
// responses one after another generates each body into the memory the
// previous one just left. The list is the host's own — one scheduler runs a
// host, so it needs no lock, and a PDES domain never touches another's.
const (
	// Buffers come in power-of-two capacities from 64 B (a request line) to
	// maxFreeBufferBytes. A larger request is allocated to measure and never
	// kept: one such buffer would be the whole budget.
	minBufferShift = 6
	bufferClasses  = 13
	// maxFreeBufferBytes caps the capacity a host keeps on its free list.
	// It is a cap in bytes, not in buffers per class: a server's list fills
	// with whatever sizes it last served, and a count would let a few
	// megabyte bodies stay resident for the rest of the run.
	maxFreeBufferBytes = 1 << (minBufferShift + bufferClasses - 1) // 256 KiB
)

// bufferList is a host's free send buffers, by size class. A host has none
// until a connection first returns a buffer: an idle device pays the nil
// pointer.
type bufferList struct {
	free [bufferClasses][][]byte
	held int // total capacity on the lists, <= maxFreeBufferBytes
}

// bufferClass is the smallest class whose buffers hold n bytes; it is
// >= bufferClasses when none does.
func bufferClass(n int) int {
	if n <= 1<<minBufferShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minBufferShift
}

// getBuffer returns an empty buffer with room for at least n bytes. Its
// contents are whatever the last owner left: callers write before they read.
func (h *Host) getBuffer(n int) []byte {
	k := bufferClass(n)
	if k >= bufferClasses {
		return make([]byte, 0, n)
	}
	if l := h.bufs; l != nil {
		if s := l.free[k]; len(s) > 0 {
			b := s[len(s)-1]
			s[len(s)-1] = nil
			l.free[k] = s[:len(s)-1]
			l.held -= cap(b)
			return b
		}
	}
	return make([]byte, 0, 1<<(minBufferShift+k))
}

// putBuffer takes back a buffer getBuffer returned. The caller must hold no
// other reference to it. Over the byte cap (or too large to be of a class)
// the buffer is left to the collector.
func (h *Host) putBuffer(b []byte) {
	k := bufferClass(cap(b))
	if k >= bufferClasses || h.bufs != nil && h.bufs.held+cap(b) > maxFreeBufferBytes {
		return
	}
	if h.bufs == nil {
		h.bufs = new(bufferList)
	}
	h.bufs.free[k] = append(h.bufs.free[k], b[:0])
	h.bufs.held += cap(b)
}
