package packet

import (
	"bytes"
	"testing"
	"testing/quick"

	"ddoshield/internal/sim"
)

func TestMACString(t *testing.T) {
	m := MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x2a}
	if got := m.String(); got != "02:00:00:00:00:2a" {
		t.Fatalf("String() = %q", got)
	}
}

func TestMACFromUint64Unique(t *testing.T) {
	seen := map[MAC]bool{}
	for i := uint64(0); i < 1000; i++ {
		m := MACFromUint64(i)
		if seen[m] {
			t.Fatalf("duplicate MAC for counter %d", i)
		}
		if m.IsBroadcast() {
			t.Fatalf("counter %d produced broadcast MAC", i)
		}
		seen[m] = true
	}
}

func TestParseAddrRoundTrip(t *testing.T) {
	for _, s := range []string{"0.0.0.0", "10.0.0.1", "192.168.1.254", "255.255.255.255"} {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if a.String() != s {
			t.Fatalf("round trip %q -> %q", s, a.String())
		}
	}
}

func TestParseAddrRejectsMalformed(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "-1.0.0.0"} {
		if _, err := ParseAddr(s); err == nil {
			t.Fatalf("ParseAddr(%q) accepted malformed input", s)
		}
	}
}

func TestAddrUint32RoundTrip(t *testing.T) {
	if err := quick.Check(func(v uint32) bool {
		return AddrFromUint32(v).Uint32() == v
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixContains(t *testing.T) {
	p := Prefix{Addr: AddrFrom4(10, 0, 0, 0), Bits: 24}
	cases := []struct {
		addr Addr
		want bool
	}{
		{AddrFrom4(10, 0, 0, 1), true},
		{AddrFrom4(10, 0, 0, 254), true},
		{AddrFrom4(10, 0, 1, 1), false},
		{AddrFrom4(11, 0, 0, 1), false},
	}
	for _, c := range cases {
		if got := p.Contains(c.addr); got != c.want {
			t.Errorf("Contains(%s) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestPrefixHostAndNumHosts(t *testing.T) {
	p := Prefix{Addr: AddrFrom4(10, 0, 0, 0), Bits: 24}
	if got := p.Host(1); got != AddrFrom4(10, 0, 0, 1) {
		t.Fatalf("Host(1) = %v", got)
	}
	if got := p.Host(200); got != AddrFrom4(10, 0, 0, 200) {
		t.Fatalf("Host(200) = %v", got)
	}
	if got := p.NumHosts(); got != 254 {
		t.Fatalf("NumHosts() = %d, want 254", got)
	}
	wide := Prefix{Addr: AddrFrom4(10, 0, 0, 0), Bits: 16}
	if got := wide.NumHosts(); got != 65534 {
		t.Fatalf("/16 NumHosts() = %d, want 65534", got)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: checksum of this data is 0xddf2 (header example).
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != ^uint16(0xddf2) {
		t.Fatalf("Checksum = %#04x, want %#04x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Verifies that an odd trailing byte is padded on the right.
	even := Checksum([]byte{0xab, 0x00})
	odd := Checksum([]byte{0xab})
	if even != odd {
		t.Fatalf("odd-length padding mismatch: %#04x vs %#04x", odd, even)
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	h := Ethernet{Dst: MACFromUint64(1), Src: MACFromUint64(2), Type: EtherTypeIPv4}
	b := h.Marshal(nil)
	if len(b) != EthernetHeaderLen {
		t.Fatalf("marshaled length = %d", len(b))
	}
	got, rest, err := UnmarshalEthernet(append(b, 0xde, 0xad))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, h)
	}
	if !bytes.Equal(rest, []byte{0xde, 0xad}) {
		t.Fatalf("rest = %x", rest)
	}
}

func TestEthernetTooShort(t *testing.T) {
	if _, _, err := UnmarshalEthernet(make([]byte, 13)); err == nil {
		t.Fatal("accepted 13-byte frame")
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := ARP{
		Op:        ARPRequest,
		SenderMAC: MACFromUint64(7),
		SenderIP:  AddrFrom4(10, 0, 0, 7),
		TargetMAC: MAC{},
		TargetIP:  AddrFrom4(10, 0, 0, 1),
	}
	b := a.Marshal(nil)
	if len(b) != ARPLen {
		t.Fatalf("marshaled length = %d", len(b))
	}
	got, err := UnmarshalARP(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, a)
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	h := IPv4{
		TOS:   0,
		ID:    0x1234,
		Flags: 2, // don't fragment
		TTL:   64,
		Proto: ProtoTCP,
		Src:   AddrFrom4(10, 0, 0, 5),
		Dst:   AddrFrom4(10, 0, 1, 1),
	}
	payload := []byte("hello world")
	b := h.Marshal(nil, len(payload))
	b = append(b, payload...)
	got, rest, err := UnmarshalIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != h.Src || got.Dst != h.Dst || got.TTL != 64 || got.Proto != ProtoTCP || got.ID != 0x1234 || got.Flags != 2 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.TotalLen != uint16(IPv4HeaderLen+len(payload)) {
		t.Fatalf("TotalLen = %d", got.TotalLen)
	}
	if !bytes.Equal(rest, payload) {
		t.Fatalf("payload = %q", rest)
	}
}

func TestIPv4CorruptionDetected(t *testing.T) {
	h := IPv4{TTL: 64, Proto: ProtoUDP, Src: AddrFrom4(1, 2, 3, 4), Dst: AddrFrom4(5, 6, 7, 8)}
	b := h.Marshal(nil, 0)
	b[8] ^= 0xff // corrupt TTL
	if _, _, err := UnmarshalIPv4(b); err == nil {
		t.Fatal("corrupted header accepted")
	}
}

func TestTCPRoundTripAndChecksum(t *testing.T) {
	src, dst := AddrFrom4(10, 0, 0, 5), AddrFrom4(10, 0, 1, 1)
	h := TCP{SrcPort: 44321, DstPort: 80, Seq: 1000, Ack: 2000, Flags: FlagSYN | FlagACK, Window: 65535}
	payload := []byte("GET / HTTP/1.1\r\n")
	b := h.Marshal(nil, src, dst, payload)
	got, rest, err := UnmarshalTCP(b, src, dst, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 44321 || got.DstPort != 80 || got.Seq != 1000 || got.Ack != 2000 ||
		got.Flags != FlagSYN|FlagACK || got.Window != 65535 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(rest, payload) {
		t.Fatalf("payload = %q", rest)
	}
}

func TestTCPChecksumDetectsCorruption(t *testing.T) {
	src, dst := AddrFrom4(10, 0, 0, 5), AddrFrom4(10, 0, 1, 1)
	h := TCP{SrcPort: 1, DstPort: 2, Flags: FlagACK}
	b := h.Marshal(nil, src, dst, []byte("data"))
	b[len(b)-1] ^= 0x01
	if _, _, err := UnmarshalTCP(b, src, dst, true); err == nil {
		t.Fatal("corrupted segment accepted")
	}
	// Spoofed source address must also fail the pseudo-header check.
	if _, _, err := UnmarshalTCP(h.Marshal(nil, src, dst, nil), AddrFrom4(9, 9, 9, 9), dst, true); err == nil {
		t.Fatal("wrong pseudo-header accepted")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	src, dst := AddrFrom4(10, 0, 0, 9), AddrFrom4(10, 0, 1, 1)
	h := UDP{SrcPort: 5353, DstPort: 53}
	payload := bytes.Repeat([]byte{0xaa}, 512)
	b := h.Marshal(nil, src, dst, payload)
	got, rest, err := UnmarshalUDP(b, src, dst, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 5353 || got.DstPort != 53 || got.Length != uint16(UDPHeaderLen+512) {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(rest, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestUDPChecksumDetectsCorruption(t *testing.T) {
	src, dst := AddrFrom4(10, 0, 0, 9), AddrFrom4(10, 0, 1, 1)
	h := UDP{SrcPort: 1000, DstPort: 2000}
	b := h.Marshal(nil, src, dst, []byte("payload"))
	b[len(b)-2] ^= 0x10
	if _, _, err := UnmarshalUDP(b, src, dst, true); err == nil {
		t.Fatal("corrupted datagram accepted")
	}
}

func TestDecodeTCPFrame(t *testing.T) {
	src, dst := AddrFrom4(10, 0, 0, 5), AddrFrom4(10, 0, 1, 1)
	raw := BuildTCP(MACFromUint64(1), MACFromUint64(2),
		IPv4{TTL: 64, ID: 7, Src: src, Dst: dst},
		TCP{SrcPort: 40000, DstPort: 80, Seq: 5, Flags: FlagSYN, Window: 1024},
		nil)
	p := new(Packet)
	if err := DecodeInto(p, 3*sim.Second, raw); err != nil {
		t.Fatal(err)
	}
	if !p.HasIPv4 || !p.HasTCP || p.HasUDP || p.HasARP {
		t.Fatalf("dissection flags wrong: %+v", p)
	}
	if p.Time != 3*sim.Second {
		t.Fatalf("Time = %v", p.Time)
	}
	if p.IPv4.Proto != ProtoTCP || p.SrcPort() != 40000 || p.DstPort() != 80 {
		t.Fatalf("accessors wrong: proto=%d %d->%d", p.IPv4.Proto, p.SrcPort(), p.DstPort())
	}
	if p.TCP.Flags&FlagSYN == 0 || p.TCP.Flags&FlagACK != 0 {
		t.Fatalf("flags = %s", FlagString(p.TCP.Flags))
	}
	if p.Len() != len(raw) {
		t.Fatalf("Len() = %d, want %d", p.Len(), len(raw))
	}
}

func TestDecodeUDPFrame(t *testing.T) {
	src, dst := AddrFrom4(10, 0, 0, 6), AddrFrom4(10, 0, 1, 1)
	payload := []byte{1, 2, 3, 4}
	raw := BuildUDP(MACFromUint64(3), MACFromUint64(4),
		IPv4{TTL: 64, Src: src, Dst: dst},
		UDP{SrcPort: 9999, DstPort: 1900},
		payload)
	p := new(Packet)
	if err := DecodeInto(p, 0, raw); err != nil {
		t.Fatal(err)
	}
	if !p.HasUDP || !bytes.Equal(p.Payload, payload) {
		t.Fatalf("UDP dissection wrong: %+v payload=%x", p, p.Payload)
	}
}

func TestDecodeARPFrame(t *testing.T) {
	raw := BuildARP(MACFromUint64(5), BroadcastMAC, ARP{
		Op:        ARPRequest,
		SenderMAC: MACFromUint64(5),
		SenderIP:  AddrFrom4(10, 0, 0, 5),
		TargetIP:  AddrFrom4(10, 0, 0, 1),
	})
	p := new(Packet)
	if err := DecodeInto(p, 0, raw); err != nil {
		t.Fatal(err)
	}
	if !p.HasARP || p.HasIPv4 {
		t.Fatalf("ARP dissection wrong: %+v", p)
	}
	if !p.Eth.Dst.IsBroadcast() {
		t.Fatal("ARP request not broadcast")
	}
}

func TestFlagString(t *testing.T) {
	if got := FlagString(FlagSYN | FlagACK); got != "SYN|ACK" {
		t.Fatalf("FlagString = %q", got)
	}
	if got := FlagString(0); got != "none" {
		t.Fatalf("FlagString(0) = %q", got)
	}
}

// Property: any TCP frame built by BuildTCP decodes back to the same
// 5-tuple, flags and payload.
func TestBuildDecodeTCPProperty(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		src, dst := AddrFromUint32(0x0a000001), AddrFromUint32(0x0a000102)
		raw := BuildTCP(MACFromUint64(1), MACFromUint64(2),
			IPv4{TTL: 64, Src: src, Dst: dst},
			TCP{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: flags, Window: 512},
			payload)
		p := new(Packet)
		err := DecodeInto(p, 0, raw)
		if err != nil || !p.HasTCP {
			return false
		}
		return p.TCP.SrcPort == sp && p.TCP.DstPort == dp && p.TCP.Seq == seq &&
			p.TCP.Ack == ack && p.TCP.Flags == flags && bytes.Equal(p.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: transport checksum verification accepts every well-formed
// segment produced by Marshal.
func TestTCPChecksumSelfConsistentProperty(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		src, dst := AddrFromUint32(0x0a000001), AddrFromUint32(0x0a000102)
		h := TCP{SrcPort: sp, DstPort: dp, Flags: FlagACK}
		b := h.Marshal(nil, src, dst, payload)
		_, _, err := UnmarshalTCP(b, src, dst, true)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
