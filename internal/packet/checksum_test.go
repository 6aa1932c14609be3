package packet

import (
	"math/rand"
	"testing"
)

// sumBytePairs is the checksum accumulation sum had before it went eight
// bytes wide — one 16-bit word per step, the RFC 1071 definition — kept as
// the oracle. sum still ends with this loop for its last seven bytes.
func sumBytePairs(acc uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		acc += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		acc += uint32(data[n-1]) << 8
	}
	return acc
}

// TestSumWideMatchesBytePairOracle compares the checksums the two
// accumulations finish to (the accumulators themselves are only congruent):
// every length to 3000 at every alignment of the eight-byte loads, with and
// without an incoming accumulator; all-zero segments, whose sum must stay
// zero (finish tells a zero sum from one that is only congruent to it); and
// the largest all-ones segment, the case that comes closest to wrapping the
// 32-bit accumulator.
func TestSumWideMatchesBytePairOracle(t *testing.T) {
	buf := make([]byte, 3008)
	rand.New(rand.NewSource(1)).Read(buf)
	for _, acc := range []uint32{0, 0x1fffe, 0xabcd1234 >> 8} {
		for off := 0; off < 8; off++ {
			for n := 0; n <= 3000; n++ {
				data := buf[off : off+n]
				if got, want := finish(sum(acc, data)), finish(sumBytePairs(acc, data)); got != want {
					t.Fatalf("acc %#x, offset %d, %d bytes: checksum %#04x, oracle %#04x", acc, off, n, got, want)
				}
			}
		}
	}

	zeros := make([]byte, 1480)
	for n := range zeros {
		if got, want := finish(sum(0, zeros[:n])), finish(sumBytePairs(0, zeros[:n])); got != want || want != 0xffff {
			t.Fatalf("%d zero bytes: checksum %#04x, oracle %#04x, want 0xffff", n, got, want)
		}
	}

	ones := make([]byte, 65535)
	for i := range ones {
		ones[i] = 0xff
	}
	// The pseudo-header a real segment of that size adds first.
	acc := pseudoHeaderSum(Addr{255, 255, 255, 255}, Addr{255, 255, 255, 255}, 0xff, len(ones))
	if got, want := finish(sum(acc, ones)), finish(sumBytePairs(acc, ones)); got != want {
		t.Fatalf("65535 bytes of 0xff: checksum %#04x, oracle %#04x", got, want)
	}
	if s := sum(acc, ones); s < acc {
		t.Fatalf("accumulator wrapped: %#x after %#x", s, acc)
	}
}
