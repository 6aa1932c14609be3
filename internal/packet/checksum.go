package packet

import (
	"encoding/binary"
	"math/bits"
)

// Checksum computes the 16-bit one's-complement Internet checksum (RFC 1071)
// over data. IPv4 headers, TCP and UDP segments all use it.
func Checksum(data []byte) uint16 {
	return finish(sum(0, data))
}

// sum accumulates the 16-bit big-endian words of data into acc. The result
// is congruent to the plain word-by-word sum modulo 0xffff and zero only when
// that sum is, which is all finish needs; it is not the same integer.
//
// Thirty-two bytes go in per step, as four little-endian uint64 words added
// with end-around carry. Modulo 0xffff a uint64 is the sum of its four
// 16-bit words, and a word read little-endian is its big-endian value times
// 2^8, so the folded total, byte-swapped once, is the big-endian sum (RFC
// 1071 §2(B)). A carry is added back, never lost, so a total that ever leaves
// zero stays above it. The folded total is at most 0xffff, which leaves acc
// the headroom the callers count on: pseudo-header plus a 64 KiB segment
// cannot wrap it. The last seven bytes or fewer go in as byte pairs.
func sum(acc uint32, data []byte) uint32 {
	var wide, c uint64
	for len(data) >= 32 {
		wide, c = bits.Add64(wide, binary.LittleEndian.Uint64(data), c)
		wide, c = bits.Add64(wide, binary.LittleEndian.Uint64(data[8:]), c)
		wide, c = bits.Add64(wide, binary.LittleEndian.Uint64(data[16:]), c)
		wide, c = bits.Add64(wide, binary.LittleEndian.Uint64(data[24:]), c)
		data = data[32:]
	}
	for len(data) >= 8 {
		wide, c = bits.Add64(wide, binary.LittleEndian.Uint64(data), c)
		data = data[8:]
	}
	wide, c = bits.Add64(wide, 0, c)
	wide += c                         // c was 1 only if wide wrapped to 0
	wide = wide>>32 + wide&0xffffffff // < 2^33
	wide = wide>>32 + wide&0xffffffff // < 2^32
	wide = wide>>16 + wide&0xffff     // < 2^17
	wide = wide>>16 + wide&0xffff     // <= 0xffff
	acc += uint32(bits.ReverseBytes16(uint16(wide)))
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		acc += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		acc += uint32(data[n-1]) << 8
	}
	return acc
}

func finish(acc uint32) uint16 {
	for acc>>16 != 0 {
		acc = (acc & 0xffff) + acc>>16
	}
	return ^uint16(acc)
}

// pseudoHeaderSum accumulates the TCP/UDP pseudo-header: source address,
// destination address, zero+protocol, and the transport-segment length.
func pseudoHeaderSum(src, dst Addr, proto uint8, length int) uint32 {
	var acc uint32
	acc = sum(acc, src[:])
	acc = sum(acc, dst[:])
	acc += uint32(proto)
	acc += uint32(length)
	return acc
}

// TransportChecksum computes the TCP/UDP checksum over the pseudo-header,
// the transport header (with its checksum field zeroed by the caller), and
// the payload.
func TransportChecksum(src, dst Addr, proto uint8, segment []byte) uint16 {
	acc := pseudoHeaderSum(src, dst, proto, len(segment))
	acc = sum(acc, segment)
	return finish(acc)
}
