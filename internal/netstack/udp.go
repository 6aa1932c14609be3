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

	rxDgrams uint64
	rxBytes  uint64
	txDgrams uint64
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

// Port reports the bound local port.
func (s *UDPSocket) Port() uint16 { return s.port }

// SendTo transmits a datagram from the socket's port.
func (s *UDPSocket) SendTo(dst packet.Addr, dstPort uint16, data []byte) {
	s.txDgrams++
	s.host.sendUDP(s.port, dst, dstPort, data)
}

// Stats reports datagrams/bytes received and datagrams sent.
func (s *UDPSocket) Stats() (rxDgrams, rxBytes, txDgrams uint64) {
	return s.rxDgrams, s.rxBytes, s.txDgrams
}

// sendUDP builds and routes one datagram.
func (h *Host) sendUDP(srcPort uint16, dst packet.Addr, dstPort uint16, data []byte) {
	ip := packet.IPv4{TTL: ipTTL, ID: h.nextIPID(), Src: h.cfg.Addr, Dst: dst}
	udp := packet.UDP{SrcPort: srcPort, DstPort: dstPort}
	payload := make([]byte, len(data))
	copy(payload, data)
	oc := h.traceOrigin("udp-tx", dst, srcPort, dstPort, packet.ProtoUDP)
	h.sendIPCtx(dst, oc, func(dstMAC packet.MAC) []byte {
		return packet.BuildUDP(h.MAC(), dstMAC, ip, udp, payload)
	})
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
	s.rxDgrams++
	s.rxBytes += uint64(len(data))
	if s.handler != nil {
		s.handler(ip.Src, udp.SrcPort, data)
	}
}
