// Package apptest holds what the application packages' wire tests share.
package apptest

import (
	"bytes"
	"hash/fnv"
	"testing"

	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

// Segment is one TCP segment a host put on the wire.
type Segment struct {
	TCP     packet.TCP
	Payload []byte
}

// Capture taps h's access link and returns a function that lists the TCP
// segments h has sent so far, in wire order, and the FNV-1a hash of those
// frames' bytes — addresses, sequence numbers, flags, checksums and payload
// all feed it, so two commits that agree on it sent the same thing.
func Capture(t *testing.T, h *netstack.Host) func() ([]Segment, uint64) {
	t.Helper()
	var frames [][]byte
	for _, l := range h.NIC().Node().Network().Links() {
		if l.SideOf(h.NIC()) >= 0 {
			l.AddTap(func(_ sim.Time, raw []byte, _ trace.Context) { frames = append(frames, bytes.Clone(raw)) })
		}
	}
	return func() ([]Segment, uint64) {
		var segs []Segment
		sum := fnv.New64a()
		for _, frame := range frames {
			eth, rest, err := packet.UnmarshalEthernet(frame)
			if err != nil || eth.Src != h.MAC() || eth.Type != packet.EtherTypeIPv4 {
				continue
			}
			ip, rest, err := packet.UnmarshalIPv4(rest)
			if err != nil {
				t.Fatal(err)
			}
			tcp, payload, err := packet.UnmarshalTCP(rest, ip.Src, ip.Dst, true)
			if err != nil {
				t.Fatal(err)
			}
			segs = append(segs, Segment{tcp, payload})
			sum.Write(frame)
		}
		return segs, sum.Sum64()
	}
}
