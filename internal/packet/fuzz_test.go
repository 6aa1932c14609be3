package packet_test

import (
	"testing"

	"ddoshield/internal/features"
	"ddoshield/internal/packet"
)

// FuzzDecodeInto feeds arbitrary bytes to the tap's parser and to the
// feature extraction after it: neither may panic, whatever a flood tool or
// a corrupted capture puts on the wire.
func FuzzDecodeInto(f *testing.F) {
	src, dst := packet.AddrFrom4(10, 0, 0, 5), packet.AddrFrom4(10, 0, 1, 1)
	seeds := [][]byte{
		packet.BuildTCP(packet.MACFromUint64(1), packet.MACFromUint64(2),
			packet.IPv4{TTL: 64, ID: 7, Src: src, Dst: dst},
			packet.TCP{SrcPort: 40000, DstPort: 80, Seq: 5, Flags: packet.FlagSYN, Window: 1024}, nil),
		packet.BuildTCP(packet.MACFromUint64(3), packet.MACFromUint64(2),
			packet.IPv4{TTL: 64, Src: src, Dst: dst},
			packet.TCP{SrcPort: 40000, DstPort: 80, Flags: packet.FlagACK | packet.FlagPSH, Window: 512}, []byte("data")),
		packet.BuildUDP(packet.MACFromUint64(3), packet.MACFromUint64(4),
			packet.IPv4{TTL: 64, Src: src, Dst: dst}, packet.UDP{SrcPort: 9999, DstPort: 1900}, []byte{1, 2, 3, 4}),
		packet.BuildARP(packet.MACFromUint64(5), packet.BroadcastMAC, packet.ARP{
			Op: packet.ARPRequest, SenderMAC: packet.MACFromUint64(5), SenderIP: src, TargetIP: dst,
		}),
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		p := packet.Acquire()
		defer p.Release()
		if err := packet.DecodeInto(p, 0, raw); err != nil {
			return
		}
		features.FromPacket(p)
	})
}
