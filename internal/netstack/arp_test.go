package netstack

import (
	"fmt"
	"testing"

	"ddoshield/internal/netsim"
	"ddoshield/internal/packet"
)

// arpState renders everything handleARP may change: the neighbour table and
// the frames the NIC has sent.
func arpState(h *Host) string {
	_, _, tx, _ := h.nic.Stats()
	out := fmt.Sprintf("tx %d", tx)
	for ip, e := range h.arp {
		out += fmt.Sprintf(" %v=%v/%v/%d/%d", ip, e.mac, e.waiting, len(e.pending), e.tries)
	}
	return out
}

// TestARPInertIsExact asks arpInert about broadcast requests in every
// neighbour state a host can hold for the sender, and checks its answer
// against what handleARP then does: inert exactly when the host's table and
// NIC are left as they were.
func TestARPInertIsExact(t *testing.T) {
	sender := packet.AddrFrom4(10, 0, 0, 9)
	senderMAC, otherMAC := packet.MACFromUint64(0x99), packet.MACFromUint64(0x77)
	states := map[string]*arpEntry{
		"no entry":              nil,
		"the sender's MAC":      {mac: senderMAC},
		"another MAC":           {mac: otherMAC},
		"the sender's, waiting": {mac: senderMAC, waiting: true},
		"resolving":             {waiting: true, tries: 1},
	}
	for name, held := range states {
		for _, target := range []string{"own", "other", "gratuitous"} {
			_, hosts := lan(t, 1, netsim.LinkConfig{})
			h := hosts[0]
			if held != nil {
				e := *held
				if e.waiting {
					e.pending = []pendingFrame{{build: func(dst packet.MAC) []byte {
						return packet.AppendARP(nil, h.MAC(), dst, packet.ARP{Op: packet.ARPRequest})
					}}}
				}
				h.arpMap()[sender] = &e
			}
			req := packet.ARP{Op: packet.ARPRequest, SenderMAC: senderMAC, SenderIP: sender}
			switch target {
			case "own":
				req.TargetIP = h.Addr()
			case "other":
				req.TargetIP = packet.AddrFrom4(10, 0, 0, 50)
			case "gratuitous":
				req.TargetIP = sender
			}
			inert := h.arpInert(req)
			before := arpState(h)
			h.handleARP(req.Marshal(nil))
			if unchanged := arpState(h) == before; inert != unchanged {
				t.Errorf("%s, request for the %s address: arpInert = %v, but handleARP changed the host: %v\n  before %s\n  after  %s",
					name, target, inert, !unchanged, before, arpState(h))
			}
		}
	}
}
