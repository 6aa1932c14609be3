package packet

import "encoding/binary"

// Checksum computes the 16-bit one's-complement Internet checksum (RFC 1071)
// over data. IPv4 headers, TCP and UDP segments all use it.
func Checksum(data []byte) uint16 {
	return finish(sum(0, data))
}

// sum accumulates the 16-bit big-endian words of data into acc. The result
// is congruent to the plain word-by-word sum modulo 0xffff and zero only when
// that sum is, which is all finish needs; it is not the same integer.
//
// Eight bytes go in per step: a big-endian uint64 holds four words, and its
// two 32-bit halves, added into a uint64, keep every carry (2^31 steps fit).
// Folding the wide sum to 17 bits before it joins acc leaves acc the headroom
// the callers count on: pseudo-header plus a 64 KiB segment cannot wrap it.
func sum(acc uint32, data []byte) uint32 {
	var wide uint64
	for len(data) >= 8 {
		v := binary.BigEndian.Uint64(data)
		wide += v>>32 + v&0xffffffff
		data = data[8:]
	}
	wide = wide>>32 + wide&0xffffffff // < 2^33
	wide = wide>>16 + wide&0xffff     // < 2^18
	wide = wide>>16 + wide&0xffff     // < 2^17
	acc += uint32(wide)
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
