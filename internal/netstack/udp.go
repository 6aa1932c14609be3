package netstack

import (
	"fmt"

	"ddoshield/internal/packet"
	"ddoshield/internal/telemetry/trace"
)

// UDPHandler receives inbound datagrams on a bound socket. data lies in the
// received frame and is valid only until the handler returns: the frame's
// buffer is then recycled, so a handler that keeps any of it copies it.
type UDPHandler func(src packet.Addr, srcPort uint16, data []byte)

// UDPSocket is a bound UDP port.
type UDPSocket struct {
	host    *Host
	port    uint16
	handler UDPHandler
}

// ListenUDP binds port and delivers inbound datagrams to handler.
func (h *Host) ListenUDP(port uint16, handler UDPHandler) (*UDPSocket, error) {
	if port == 0 {
		port = h.nextEphemeralPort()
	}
	if _, used := h.udpSocks[port]; used {
		return nil, fmt.Errorf("udp port %d already bound on %s", port, h.cfg.Addr)
	}
	s := &UDPSocket{host: h, port: port, handler: handler}
	if h.udpSocks == nil {
		h.udpSocks = make(map[uint16]*UDPSocket)
	}
	h.udpSocks[port] = s
	return s, nil
}

// SendTo transmits a datagram from the socket's port. The caller keeps
// data: it is copied into the frame.
func (s *UDPSocket) SendTo(dst packet.Addr, dstPort uint16, data []byte) {
	h := s.host
	ip := packet.IPv4{TTL: ipTTL, ID: h.nextIPID(), Src: h.cfg.Addr, Dst: dst}
	udp := packet.UDP{SrcPort: s.port, DstPort: dstPort}
	oc := h.traceOrigin("udp-tx", dst, s.port, dstPort, packet.ProtoUDP)
	h.SendFrame(dst, packet.BuildUDP(h.MAC(), packet.MAC{}, ip, udp, data), oc)
}

func (h *Host) handleUDP(ip packet.IPv4, payload []byte, tc trace.Context) {
	now := h.sched.Now()
	udp, data, err := packet.UnmarshalUDP(payload, ip.Src, ip.Dst, true)
	if err != nil {
		tc.Drop(now, trace.DropMalformed)
		return
	}
	s, ok := h.udpSocks[udp.DstPort]
	if !ok {
		// No listener: a real stack would emit ICMP port-unreachable.
		tc.Drop(now, trace.DropNoSocket)
		return
	}
	tc.FinishTerminal(now)
	if s.handler != nil {
		s.handler(ip.Src, udp.SrcPort, data)
	}
}
