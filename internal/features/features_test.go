package features

import (
	"math"
	"testing"
	"time"

	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

func tcpBasic(t sim.Time, src, dst byte, srcPort, dstPort uint16, flags uint8, seq uint32) Basic {
	return Basic{
		Time: t, Src: packet.AddrFrom4(10, 0, 0, src), Dst: packet.AddrFrom4(10, 0, 1, dst),
		Proto: packet.ProtoTCP, SrcPort: srcPort, DstPort: dstPort,
		Length: 60, Flags: flags, Seq: seq,
	}
}

func udpBasic(t sim.Time, src byte, dstPort uint16) Basic {
	return Basic{
		Time: t, Src: packet.AddrFrom4(10, 0, 0, src), Dst: packet.AddrFrom4(10, 0, 1, 1),
		Proto: packet.ProtoUDP, SrcPort: 4000, DstPort: dstPort, Length: 554,
	}
}

func TestFromPacket(t *testing.T) {
	raw := packet.BuildTCP(packet.MACFromUint64(1), packet.MACFromUint64(2),
		packet.IPv4{TTL: 64, Src: packet.AddrFrom4(10, 0, 0, 5), Dst: packet.AddrFrom4(10, 0, 1, 1)},
		packet.TCP{SrcPort: 40000, DstPort: 80, Seq: 777, Flags: packet.FlagSYN, Window: 512},
		nil)
	p := new(packet.Packet)
	if err := packet.DecodeInto(p, 2*sim.Second, raw); err != nil {
		t.Fatal(err)
	}
	b, ok := FromPacket(p)
	if !ok {
		t.Fatal("TCP packet not feature-bearing")
	}
	if b.SrcPort != 40000 || b.DstPort != 80 || b.Seq != 777 || b.Flags != packet.FlagSYN {
		t.Fatalf("basic = %+v", b)
	}
	// ARP is not feature-bearing.
	arpRaw := packet.BuildARP(packet.MACFromUint64(1), packet.BroadcastMAC, packet.ARP{Op: packet.ARPRequest})
	ap := new(packet.Packet)
	if err := packet.DecodeInto(ap, 0, arpRaw); err != nil {
		t.Fatal(err)
	}
	if _, ok := FromPacket(ap); ok {
		t.Fatal("ARP marked feature-bearing")
	}
}

func TestStatsBenignWindow(t *testing.T) {
	// A handshake plus data: SYN, SYN-ACK, ACK, data.
	pkts := []Basic{
		tcpBasic(0, 5, 1, 40000, 80, packet.FlagSYN, 100),
		tcpBasic(10*sim.Millisecond, 1, 5, 80, 40000, packet.FlagSYN|packet.FlagACK, 200),
		tcpBasic(20*sim.Millisecond, 5, 1, 40000, 80, packet.FlagACK, 101),
		tcpBasic(30*sim.Millisecond, 5, 1, 40000, 80, packet.FlagACK|packet.FlagPSH, 101),
	}
	st := ComputeStats(pkts)
	if st.PacketCount != 4 || st.ByteCount != 240 {
		t.Fatalf("counts: %+v", st)
	}
	if st.SynCount != 1 || st.SynAckCount != 1 {
		t.Fatalf("syn counting: %+v", st)
	}
	if st.SynNoAckRatio != 0.5 { // 1/(1+1)
		t.Fatalf("SynNoAckRatio = %v", st.SynNoAckRatio)
	}
	if st.RepeatedConnAttempts != 0 {
		t.Fatalf("RepeatedConnAttempts = %d", st.RepeatedConnAttempts)
	}
	if st.UDPFraction != 0 {
		t.Fatalf("UDPFraction = %v", st.UDPFraction)
	}
	// Sequence numbers are clustered: tiny normalized std.
	if st.SeqStd > 0.01 {
		t.Fatalf("SeqStd = %v for clustered seqs", st.SeqStd)
	}
}

func TestStatsFloodWindowSignature(t *testing.T) {
	// A SYN flood: every packet a pure SYN from a distinct source with a
	// random sequence number.
	rng := sim.NewRNG(1)
	pkts := make([]Basic, 0, 500)
	for i := 0; i < 500; i++ {
		pkts = append(pkts, tcpBasic(
			sim.Time(i)*sim.Millisecond,
			byte(i%250), 1,
			uint16(1024+rng.Intn(60000)), 80,
			packet.FlagSYN, rng.Uint32()))
	}
	st := ComputeStats(pkts)
	if st.SynCount != 500 || st.SynAckCount != 0 {
		t.Fatalf("syn counting: %+v", st)
	}
	if st.SynNoAckRatio != 500 {
		t.Fatalf("SynNoAckRatio = %v", st.SynNoAckRatio)
	}
	// Random 32-bit seqs: normalized std near uniform value 1/sqrt(12)≈0.289.
	if st.SeqStd < 0.2 || st.SeqStd > 0.4 {
		t.Fatalf("SeqStd = %v for random seqs", st.SeqStd)
	}
	if st.ShortLivedConns < 400 {
		t.Fatalf("ShortLivedConns = %d", st.ShortLivedConns)
	}
	if st.RepeatedConnAttempts < 200 {
		// 500 SYNs across 250 (src,dst,port) triples: every triple repeats.
		t.Fatalf("RepeatedConnAttempts = %d", st.RepeatedConnAttempts)
	}
	if st.SrcAddrEntropy < 7 { // 250 sources ≈ 7.97 bits
		t.Fatalf("SrcAddrEntropy = %v", st.SrcAddrEntropy)
	}
	if st.DstPortEntropy != 0 { // single target port
		t.Fatalf("DstPortEntropy = %v", st.DstPortEntropy)
	}
}

func TestStatsUDPFloodSignature(t *testing.T) {
	rng := sim.NewRNG(2)
	pkts := make([]Basic, 0, 300)
	for i := 0; i < 300; i++ {
		pkts = append(pkts, udpBasic(sim.Time(i)*sim.Millisecond, 7, uint16(1024+rng.Intn(60000))))
	}
	st := ComputeStats(pkts)
	if st.UDPFraction != 1 {
		t.Fatalf("UDPFraction = %v", st.UDPFraction)
	}
	if st.DstPortEntropy < 7 { // sprayed ports: high entropy
		t.Fatalf("DstPortEntropy = %v", st.DstPortEntropy)
	}
	if st.UniqueDstPorts < 250 {
		t.Fatalf("UniqueDstPorts = %d", st.UniqueDstPorts)
	}
}

func TestEntropyKnownValues(t *testing.T) {
	// Uniform over 4 symbols: 2 bits.
	h := entropy(map[int]int{1: 5, 2: 5, 3: 5, 4: 5}, 20, new([]int))
	if math.Abs(h-2) > 1e-12 {
		t.Fatalf("entropy = %v, want 2", h)
	}
	// Single symbol: 0 bits.
	if got := entropy(map[int]int{1: 9}, 9, new([]int)); got != 0 {
		t.Fatalf("entropy = %v, want 0", got)
	}
	if got := entropy(map[int]int{}, 0, new([]int)); got != 0 {
		t.Fatalf("empty entropy = %v", got)
	}
}

func TestEmptyStats(t *testing.T) {
	st := ComputeStats(nil)
	if st.PacketCount != 0 || st.MeanPacketLen != 0 {
		t.Fatalf("empty stats: %+v", st)
	}
}

func TestVectorLayout(t *testing.T) {
	if len(Names()) != NumFeatures() {
		t.Fatalf("Names()=%d NumFeatures()=%d", len(Names()), NumFeatures())
	}
	b := tcpBasic(0, 5, 1, 40000, 80, packet.FlagSYN|packet.FlagPSH, 1)
	st := ComputeStats([]Basic{b})
	v := AppendVector(nil, &b, &st)
	if len(v) != NumFeatures() {
		t.Fatalf("vector length = %d, want %d", len(v), NumFeatures())
	}
	names := Names()
	at := func(name string) float64 {
		for i, n := range names {
			if n == name {
				return v[i]
			}
		}
		t.Fatalf("feature %q missing", name)
		return 0
	}
	if at("proto_tcp") != 1 || at("proto_udp") != 0 {
		t.Fatal("protocol one-hot wrong")
	}
	if at("flag_syn") != 1 || at("flag_psh") != 1 || at("flag_ack") != 0 {
		t.Fatal("flag encoding wrong")
	}
	if at("pkt_len") != 60 {
		t.Fatal("pkt_len wrong")
	}
	if at("win_pkt_count") != 1 {
		t.Fatal("stat block wrong")
	}
}

func TestStatisticalBlockSharedAcrossWindowPackets(t *testing.T) {
	pkts := []Basic{
		tcpBasic(0, 5, 1, 40000, 80, packet.FlagSYN, 1),
		udpBasic(100*sim.Millisecond, 6, 1900),
		tcpBasic(200*sim.Millisecond, 7, 1, 40001, 80, packet.FlagACK, 2),
	}
	w := &Window{Packets: pkts, Stats: ComputeStats(pkts)}
	vecs := w.Vectors()
	nb := NumBasic()
	for i := 1; i < len(vecs); i++ {
		for j := nb; j < NumFeatures(); j++ {
			if vecs[i][j] != vecs[0][j] {
				t.Fatalf("stat feature %d differs between packets in one window", j)
			}
		}
	}
	// Basic block must differ (different protocols).
	same := true
	for j := 0; j < nb; j++ {
		if vecs[0][j] != vecs[1][j] {
			same = false
		}
	}
	if same {
		t.Fatal("basic blocks identical for different packets")
	}
}

// cloneWindow deep-copies an emitted window: the extractor reuses its
// emission buffer across windows, so tests that retain windows must copy.
func cloneWindow(w *Window) *Window {
	c := *w
	c.Packets = append([]Basic(nil), w.Packets...)
	return &c
}

func TestExtractorWindowing(t *testing.T) {
	var windows []*Window
	e := NewExtractor(time.Second, func(w *Window) { windows = append(windows, cloneWindow(w)) })
	// 3 packets in window 0, 2 in window 2 (window 1 empty).
	e.Add(tcpBasic(100*sim.Millisecond, 1, 1, 1, 80, 0, 0))
	e.Add(tcpBasic(500*sim.Millisecond, 1, 1, 1, 80, 0, 0))
	e.Add(tcpBasic(999*sim.Millisecond, 1, 1, 1, 80, 0, 0))
	e.Add(tcpBasic(2100*sim.Millisecond, 1, 1, 1, 80, 0, 0))
	e.Add(tcpBasic(2900*sim.Millisecond, 1, 1, 1, 80, 0, 0))
	e.Flush()
	if len(windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(windows))
	}
	if len(windows[0].Packets) != 3 || len(windows[1].Packets) != 2 {
		t.Fatalf("window sizes = %d/%d", len(windows[0].Packets), len(windows[1].Packets))
	}
	if windows[0].Start != 0 || windows[1].Start != 2*sim.Second {
		t.Fatalf("window starts = %v/%v", windows[0].Start, windows[1].Start)
	}
}

func TestExtractorCustomWindow(t *testing.T) {
	var windows []*Window
	e := NewExtractor(5*time.Second, func(w *Window) { windows = append(windows, cloneWindow(w)) })
	if e.WindowSize() != 5*time.Second {
		t.Fatal("WindowSize")
	}
	for i := 0; i < 10; i++ {
		e.Add(tcpBasic(sim.Time(i)*sim.Second, 1, 1, 1, 80, 0, 0))
	}
	e.Flush()
	if len(windows) != 2 {
		t.Fatalf("windows = %d, want 2 at 5s granularity", len(windows))
	}
}

func TestExtractorDoubleFlushSafe(t *testing.T) {
	n := 0
	e := NewExtractor(time.Second, func(*Window) { n++ })
	e.Add(tcpBasic(0, 1, 1, 1, 80, 0, 0))
	e.Flush()
	e.Flush()
	if n != 1 {
		t.Fatalf("flushes emitted %d windows", n)
	}
}
