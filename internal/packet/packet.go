package packet

import (
	"fmt"

	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

// Packet is a decoded view of one captured frame. Capture taps hand Packets
// to the pcap writer and to the IDS feature extractor; the raw frame bytes
// are retained so captures can be re-serialized losslessly.
type Packet struct {
	// Time is the simulated capture instant.
	Time sim.Time
	// Raw is the full frame as it appeared on the wire.
	Raw []byte

	Eth Ethernet
	// L3 dissection. Exactly one of HasIPv4/HasARP is set for well-formed
	// frames produced by the testbed.
	HasIPv4 bool
	IPv4    IPv4
	HasARP  bool
	ARP     ARP
	// L4 dissection, present when HasIPv4 and the protocol is TCP or UDP.
	HasTCP bool
	TCP    TCP
	HasUDP bool
	UDP    UDP
	// Payload is the transport payload (TCP/UDP), or the IP payload for
	// other protocols.
	Payload []byte

	// Trace is the frame's causal-trace context, set by taps that pass on
	// the context netsim hands them after decoding; the zero value means the
	// frame's flow was not sampled. DecodeInto and Release both reset it so
	// a pooled Packet can never leak a stale TraceID into the next frame.
	Trace trace.Context
}

// DecodeInto dissects a raw frame captured at time t into p, overwriting all
// of p's fields. Dissection is best-effort: a frame whose inner layers fail
// to parse keeps the layers that did parse, because a flood tool may emit
// malformed packets on purpose; only a frame too short for its Ethernet
// header is an error, and then p is left fully reset except for Time and
// Raw. p may come from Acquire (see the pooling contract there) or be any
// caller-owned Packet being reused across frames. The Packet's Raw and
// Payload alias raw: a frame handed to a tap or handler is recycled after
// the call, so a Packet kept past it must be decoded from a copy.
func DecodeInto(p *Packet, t sim.Time, raw []byte) error {
	*p = Packet{Time: t, Raw: raw}
	eth, rest, err := UnmarshalEthernet(raw)
	if err != nil {
		return err
	}
	p.Eth = eth
	switch eth.Type {
	case EtherTypeARP:
		arp, err := UnmarshalARP(rest)
		if err != nil {
			return nil
		}
		p.HasARP = true
		p.ARP = arp
	case EtherTypeIPv4:
		ip, payload, err := UnmarshalIPv4(rest)
		if err != nil {
			return nil
		}
		p.HasIPv4 = true
		p.IPv4 = ip
		p.Payload = payload
		switch ip.Proto {
		case ProtoTCP:
			tcp, data, err := UnmarshalTCP(payload, ip.Src, ip.Dst, false)
			if err == nil {
				p.HasTCP = true
				p.TCP = tcp
				p.Payload = data
			}
		case ProtoUDP:
			udp, data, err := UnmarshalUDP(payload, ip.Src, ip.Dst, false)
			if err == nil {
				p.HasUDP = true
				p.UDP = udp
				p.Payload = data
			}
		}
	}
	return nil
}

// Len reports the on-wire frame length in bytes.
func (p *Packet) Len() int { return len(p.Raw) }

// SrcPort reports the transport source port, or 0 when not applicable.
func (p *Packet) SrcPort() uint16 {
	switch {
	case p.HasTCP:
		return p.TCP.SrcPort
	case p.HasUDP:
		return p.UDP.SrcPort
	}
	return 0
}

// DstPort reports the transport destination port, or 0 when not applicable.
func (p *Packet) DstPort() uint16 {
	switch {
	case p.HasTCP:
		return p.TCP.DstPort
	case p.HasUDP:
		return p.UDP.DstPort
	}
	return 0
}

// FlowKey identifies the unidirectional 5-tuple flow the packet belongs to.
type FlowKey struct {
	Src     Addr
	Dst     Addr
	Proto   uint8
	SrcPort uint16
	DstPort uint16
}

// String renders a tcpdump-style one-line summary.
func (p *Packet) String() string {
	switch {
	case p.HasTCP:
		return fmt.Sprintf("%s %s:%d > %s:%d TCP [%s] seq=%d ack=%d len=%d",
			p.Time, p.IPv4.Src, p.TCP.SrcPort, p.IPv4.Dst, p.TCP.DstPort,
			FlagString(p.TCP.Flags), p.TCP.Seq, p.TCP.Ack, len(p.Payload))
	case p.HasUDP:
		return fmt.Sprintf("%s %s:%d > %s:%d UDP len=%d",
			p.Time, p.IPv4.Src, p.UDP.SrcPort, p.IPv4.Dst, p.UDP.DstPort, len(p.Payload))
	case p.HasARP:
		op := "request"
		if p.ARP.Op == ARPReply {
			op = "reply"
		}
		return fmt.Sprintf("%s ARP %s %s -> %s", p.Time, op, p.ARP.SenderIP, p.ARP.TargetIP)
	case p.HasIPv4:
		return fmt.Sprintf("%s %s > %s proto=%d len=%d",
			p.Time, p.IPv4.Src, p.IPv4.Dst, p.IPv4.Proto, len(p.Payload))
	}
	return fmt.Sprintf("%s %s > %s ethertype=%#04x len=%d",
		p.Time, p.Eth.Src, p.Eth.Dst, uint16(p.Eth.Type), len(p.Raw))
}

// AppendTCP appends a complete Ethernet+IPv4+TCP frame to b and returns the
// extended slice. It marshals every layer directly into the destination —
// no intermediate segment buffer — so callers that own a reusable scratch
// buffer build frames without allocating. The frame builders below and the
// Mirai flood engines are the hot callers.
func AppendTCP(b []byte, srcMAC, dstMAC MAC, ip IPv4, tcp TCP, payload []byte) []byte {
	ip.Proto = ProtoTCP
	eth := Ethernet{Dst: dstMAC, Src: srcMAC, Type: EtherTypeIPv4}
	b = eth.Marshal(b)
	b = ip.Marshal(b, TCPHeaderLen+len(payload))
	return tcp.Marshal(b, ip.Src, ip.Dst, payload)
}

// AppendUDP appends a complete Ethernet+IPv4+UDP frame to b and returns the
// extended slice. See AppendTCP for the buffer-reuse contract.
func AppendUDP(b []byte, srcMAC, dstMAC MAC, ip IPv4, udp UDP, payload []byte) []byte {
	ip.Proto = ProtoUDP
	eth := Ethernet{Dst: dstMAC, Src: srcMAC, Type: EtherTypeIPv4}
	b = eth.Marshal(b)
	b = ip.Marshal(b, UDPHeaderLen+len(payload))
	return udp.Marshal(b, ip.Src, ip.Dst, payload)
}

// AppendARP appends a complete Ethernet+ARP frame to b and returns the
// extended slice.
func AppendARP(b []byte, srcMAC, dstMAC MAC, a ARP) []byte {
	eth := Ethernet{Dst: dstMAC, Src: srcMAC, Type: EtherTypeARP}
	return a.Marshal(eth.Marshal(b))
}

// BuildTCP assembles a complete Ethernet+IPv4+TCP frame in a recycled
// frame buffer (see FrameCap). It is the low-level builder used by the
// netstack and, directly, by the Mirai flood engines (which forge headers
// without a connection, exactly as the real malware's raw-socket attacks
// do). The caller owns the frame until it hands it on: sending it through a
// netsim NIC passes ownership to the network, which releases it where the
// frame's life ends (ReleaseFrame).
func BuildTCP(srcMAC, dstMAC MAC, ip IPv4, tcp TCP, payload []byte) []byte {
	b := newFrame(EthernetHeaderLen + IPv4HeaderLen + TCPHeaderLen + len(payload))
	return AppendTCP(b, srcMAC, dstMAC, ip, tcp, payload)
}

// BuildUDP assembles a complete Ethernet+IPv4+UDP frame in a recycled frame
// buffer; ownership as for BuildTCP.
func BuildUDP(srcMAC, dstMAC MAC, ip IPv4, udp UDP, payload []byte) []byte {
	b := newFrame(EthernetHeaderLen + IPv4HeaderLen + UDPHeaderLen + len(payload))
	return AppendUDP(b, srcMAC, dstMAC, ip, udp, payload)
}

// BuildARP assembles a complete Ethernet+ARP frame in a recycled frame
// buffer; ownership as for BuildTCP.
func BuildARP(srcMAC, dstMAC MAC, a ARP) []byte {
	return AppendARP(newFrame(EthernetHeaderLen+ARPLen), srcMAC, dstMAC, a)
}
