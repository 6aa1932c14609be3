// Package packet defines the wire formats carried by the simulated network:
// Ethernet II frames, ARP, IPv4, TCP and UDP, with real big-endian
// serialization and Internet checksums. Captured traffic therefore parses
// with standard tooling, and the IDS feature extractor (destination-port
// entropy, SYN-without-ACK analysis, ...) operates on genuine header fields
// rather than on synthetic records.
package packet

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// BroadcastMAC is the all-ones Ethernet broadcast address.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// MACFromUint64 derives a locally-administered unicast MAC from a counter;
// the testbed assigns NICs sequential MACs this way.
func MACFromUint64(v uint64) MAC {
	var m MAC
	m[0] = 0x02 // locally administered, unicast
	m[1] = byte(v >> 32)
	m[2] = byte(v >> 24)
	m[3] = byte(v >> 16)
	m[4] = byte(v >> 8)
	m[5] = byte(v)
	return m
}

// IsBroadcast reports whether the address is the Ethernet broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// String renders the address in colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Addr is an IPv4 address in network (big-endian) byte order.
type Addr [4]byte

// AddrFrom4 builds an address from four octets.
func AddrFrom4(a, b, c, d byte) Addr { return Addr{a, b, c, d} }

// AddrFromUint32 builds an address from its 32-bit big-endian value.
func AddrFromUint32(v uint32) Addr {
	var a Addr
	binary.BigEndian.PutUint32(a[:], v)
	return a
}

// ParseAddr parses dotted-quad notation ("10.0.0.1").
func ParseAddr(s string) (Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return Addr{}, fmt.Errorf("parse addr %q: need 4 octets", s)
	}
	var a Addr
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return Addr{}, fmt.Errorf("parse addr %q: bad octet %q", s, p)
		}
		a[i] = byte(v)
	}
	return a, nil
}

// Uint32 returns the address as a 32-bit big-endian value.
func (a Addr) Uint32() uint32 { return binary.BigEndian.Uint32(a[:]) }

// IsZero reports whether the address is 0.0.0.0.
func (a Addr) IsZero() bool { return a == Addr{} }

// String renders dotted-quad notation.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Prefix is an IPv4 CIDR prefix used for routing and subnet membership.
type Prefix struct {
	Addr Addr
	Bits int
}

func (p Prefix) mask() uint32 {
	if p.Bits <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(p.Bits))
}

// Contains reports whether a falls inside the prefix.
func (p Prefix) Contains(a Addr) bool {
	m := p.mask()
	return a.Uint32()&m == p.Addr.Uint32()&m
}

// Host returns the n-th host address inside the prefix (n=1 is the first
// usable host). It does not guard against overflowing the prefix.
func (p Prefix) Host(n uint32) Addr {
	return AddrFromUint32((p.Addr.Uint32() & p.mask()) + n)
}

// NumHosts reports the number of assignable host addresses in the prefix
// (excluding network and broadcast addresses for prefixes shorter than /31).
func (p Prefix) NumHosts() uint32 {
	span := uint32(1) << (32 - uint(p.Bits))
	if span <= 2 {
		return span
	}
	return span - 2
}

// String renders CIDR notation.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Bits) }
