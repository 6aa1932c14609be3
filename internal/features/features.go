// Package features implements the IDS preprocessing stage of Fig. 2: it
// turns captured packets into fixed-length numeric vectors by aggregating
// per-packet "basic" features with per-time-window "statistical" features,
// exactly as §III-B and §IV-A of the paper describe. Every packet in a
// window shares the window's statistical features — the property the paper
// identifies as both an accuracy booster (it separates flood windows from
// benign windows) and a noise source at attack boundaries.
package features

import (
	"math"
	"slices"
	"time"

	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// Basic is the per-packet feature set: the attributes the paper lists
// (timestamp, addresses, protocol, ports) plus the header fields the
// statistical features are computed from.
type Basic struct {
	Time    sim.Time
	Src     packet.Addr
	Dst     packet.Addr
	Proto   uint8
	SrcPort uint16
	DstPort uint16
	Length  int
	Flags   uint8  // TCP flags (0 for UDP)
	Seq     uint32 // TCP sequence number (0 for UDP)
}

// FromPacket extracts basic features from a dissected frame. Non-IP and
// non-TCP/UDP frames are not feature-bearing and return ok=false.
func FromPacket(p *packet.Packet) (Basic, bool) {
	if !p.HasIPv4 || (!p.HasTCP && !p.HasUDP) {
		return Basic{}, false
	}
	b := Basic{
		Time:    p.Time,
		Src:     p.IPv4.Src,
		Dst:     p.IPv4.Dst,
		Proto:   p.IPv4.Proto,
		SrcPort: p.SrcPort(),
		DstPort: p.DstPort(),
		Length:  p.Len(),
	}
	if p.HasTCP {
		b.Flags = p.TCP.Flags
		b.Seq = p.TCP.Seq
	}
	return b, true
}

// Stats is the per-window statistical feature set of §IV-A: traffic volume,
// destination-port entropy, port-frequency and short-lived-connection
// analysis, SYN-without-ACK counting, flow rates and sequence-number
// variance.
type Stats struct {
	// PacketCount is the number of packets in the window.
	PacketCount int
	// ByteCount is the total frame bytes in the window.
	ByteCount int
	// MeanPacketLen is ByteCount/PacketCount.
	MeanPacketLen float64
	// DstPortEntropy is the Shannon entropy (bits) of destination ports.
	DstPortEntropy float64
	// SrcAddrEntropy is the Shannon entropy (bits) of source addresses;
	// spoofed-source floods drive it toward its maximum.
	SrcAddrEntropy float64
	// UniqueDstPorts counts distinct destination ports.
	UniqueDstPorts int
	// UniqueSrcs counts distinct source addresses.
	UniqueSrcs int
	// SynCount counts pure SYN packets (SYN set, ACK clear).
	SynCount int
	// SynAckCount counts SYN+ACK packets.
	SynAckCount int
	// SynNoAckRatio is SynCount/(SynAckCount+1): the scanning/flood
	// signature of SYNs that never complete handshakes.
	SynNoAckRatio float64
	// ShortLivedConns counts flows that appear in this window with fewer
	// than shortFlowPackets packets — probe- and flood-style flows.
	ShortLivedConns int
	// RepeatedConnAttempts counts (src,dst,dstPort) triples with more than
	// one pure SYN in the window.
	RepeatedConnAttempts int
	// FlowCount counts distinct 5-tuple flows in the window (flow rate).
	FlowCount int
	// SeqStd is the standard deviation of TCP sequence numbers normalized
	// to [0,1]; random per-packet sequence numbers (forged floods) push it
	// toward the uniform-distribution value ~0.29.
	SeqStd float64
	// UDPFraction is the share of UDP packets.
	UDPFraction float64
	// MeanInterarrival is the mean packet gap in seconds.
	MeanInterarrival float64
}

// shortFlowPackets is the threshold below which a flow observed in a
// window counts as short-lived.
const shortFlowPackets = 3

// statsScratch holds the histogram maps ComputeStats needs. An Extractor
// keeps one and clears it per window, so steady-state window closes reuse
// the map storage instead of reallocating four maps per second of capture.
type statsScratch struct {
	dstPorts   map[uint16]int
	srcs       map[packet.Addr]int
	flows      map[packet.FlowKey]int
	synTriples map[packet.FlowKey]int
	counts     []int // a histogram's counts, sorted, for entropy
}

func (sc *statsScratch) reset() {
	if sc.dstPorts == nil {
		sc.dstPorts = make(map[uint16]int)
		sc.srcs = make(map[packet.Addr]int)
		sc.flows = make(map[packet.FlowKey]int)
		sc.synTriples = make(map[packet.FlowKey]int)
		return
	}
	clear(sc.dstPorts)
	clear(sc.srcs)
	clear(sc.flows)
	clear(sc.synTriples)
}

// ComputeStats computes the window statistics over a packet batch.
func ComputeStats(pkts []Basic) Stats {
	var sc statsScratch
	return sc.compute(pkts)
}

// compute is ComputeStats over reusable scratch maps.
func (sc *statsScratch) compute(pkts []Basic) Stats {
	var st Stats
	st.PacketCount = len(pkts)
	if len(pkts) == 0 {
		return st
	}
	sc.reset()
	dstPorts := sc.dstPorts
	srcs := sc.srcs
	flows := sc.flows
	synTriples := sc.synTriples
	var seqMean, seqM2 float64
	var seqN int
	udp := 0
	for i := range pkts {
		p := &pkts[i]
		st.ByteCount += p.Length
		dstPorts[p.DstPort]++
		srcs[p.Src]++
		flows[packet.FlowKey{
			Src: p.Src, Dst: p.Dst, Proto: p.Proto,
			SrcPort: p.SrcPort, DstPort: p.DstPort,
		}]++
		switch p.Proto {
		case packet.ProtoUDP:
			udp++
		case packet.ProtoTCP:
			syn := p.Flags&packet.FlagSYN != 0
			ack := p.Flags&packet.FlagACK != 0
			switch {
			case syn && !ack:
				st.SynCount++
				synTriples[packet.FlowKey{Src: p.Src, Dst: p.Dst, Proto: p.Proto, DstPort: p.DstPort}]++
			case syn && ack:
				st.SynAckCount++
			}
			// Welford accumulation of normalized sequence numbers.
			seqN++
			v := float64(p.Seq) / float64(math.MaxUint32)
			d := v - seqMean
			seqMean += d / float64(seqN)
			seqM2 += d * (v - seqMean)
		}
	}
	st.MeanPacketLen = float64(st.ByteCount) / float64(len(pkts))
	st.DstPortEntropy = entropy(dstPorts, len(pkts), &sc.counts)
	st.SrcAddrEntropy = entropy(srcs, len(pkts), &sc.counts)
	st.UniqueDstPorts = len(dstPorts)
	st.UniqueSrcs = len(srcs)
	st.SynNoAckRatio = float64(st.SynCount) / float64(st.SynAckCount+1)
	for _, n := range flows {
		if n < shortFlowPackets {
			st.ShortLivedConns++
		}
	}
	for _, n := range synTriples {
		if n > 1 {
			st.RepeatedConnAttempts++
		}
	}
	st.FlowCount = len(flows)
	if seqN > 1 {
		st.SeqStd = math.Sqrt(seqM2 / float64(seqN))
	}
	st.UDPFraction = float64(udp) / float64(len(pkts))
	if len(pkts) > 1 {
		span := (pkts[len(pkts)-1].Time - pkts[0].Time).Seconds()
		st.MeanInterarrival = span / float64(len(pkts)-1)
	}
	return st
}

// entropy computes Shannon entropy in bits over a count histogram. It sums
// the terms in ascending count order, sorting the counts in *counts, so the
// result does not depend on the map's iteration order, down to the last bit.
func entropy[K comparable](hist map[K]int, total int, counts *[]int) float64 {
	if total == 0 {
		return 0
	}
	c := (*counts)[:0]
	for _, n := range hist {
		if n > 0 {
			c = append(c, n)
		}
	}
	slices.Sort(c)
	*counts = c
	var h float64
	for _, n := range c {
		p := float64(n) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// Feature vector layout: basic features first, then the statistical block
// shared by every packet in the window.
var (
	basicNames = []string{
		"proto_tcp", "proto_udp", "src_port", "dst_port", "pkt_len",
		"flag_syn", "flag_ack", "flag_fin", "flag_rst", "flag_psh",
	}
	statNames = []string{
		"win_pkt_count", "win_byte_count", "win_mean_pkt_len",
		"win_dst_port_entropy", "win_src_addr_entropy",
		"win_unique_dst_ports", "win_unique_srcs",
		"win_syn_count", "win_synack_count", "win_syn_noack_ratio",
		"win_short_lived_conns", "win_repeated_conn_attempts",
		"win_flow_count", "win_seq_std", "win_udp_fraction",
		"win_mean_interarrival",
	}
)

// Names returns the feature names in vector order.
func Names() []string {
	out := make([]string, 0, len(basicNames)+len(statNames))
	out = append(out, basicNames...)
	return append(out, statNames...)
}

// NumFeatures is the length of every produced vector.
func NumFeatures() int { return len(basicNames) + len(statNames) }

// NumBasic is the number of per-packet features at the front of the vector.
func NumBasic() int { return len(basicNames) }

func flag(f, bit uint8) float64 {
	if f&bit != 0 {
		return 1
	}
	return 0
}

// AppendVector appends the aggregated feature vector (basic ∥ stats) for
// one packet to dst and returns the extended slice.
func AppendVector(dst []float64, b *Basic, st *Stats) []float64 {
	dst = append(dst,
		boolF(b.Proto == packet.ProtoTCP),
		boolF(b.Proto == packet.ProtoUDP),
		float64(b.SrcPort)/65535,
		float64(b.DstPort)/65535,
		float64(b.Length),
		flag(b.Flags, packet.FlagSYN),
		flag(b.Flags, packet.FlagACK),
		flag(b.Flags, packet.FlagFIN),
		flag(b.Flags, packet.FlagRST),
		flag(b.Flags, packet.FlagPSH),
	)
	return append(dst,
		float64(st.PacketCount),
		float64(st.ByteCount),
		st.MeanPacketLen,
		st.DstPortEntropy,
		st.SrcAddrEntropy,
		float64(st.UniqueDstPorts),
		float64(st.UniqueSrcs),
		float64(st.SynCount),
		float64(st.SynAckCount),
		st.SynNoAckRatio,
		float64(st.ShortLivedConns),
		float64(st.RepeatedConnAttempts),
		float64(st.FlowCount),
		st.SeqStd,
		st.UDPFraction,
		st.MeanInterarrival,
	)
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// rowFlags are the TCP flag bits AppendVector reads: FIN, SYN, RST, PSH and
// ACK, the five low bits of the flag byte.
const rowFlags = packet.FlagFIN | packet.FlagSYN | packet.FlagRST | packet.FlagPSH | packet.FlagACK

// rowLenBits is the room RowKey leaves the length once the protocol (8
// bits), both ports (32) and the five flag bits are packed.
const rowLenBits = 64 - 8 - 32 - 5

// RowKey packs exactly the fields of b that AppendVector reads — protocol,
// ports, length and the five flag bits — into one integer, so that under one
// Stats two packets with equal keys get bit-identical vectors. ok is false
// when the length does not fit; such a packet is a row of its own.
func RowKey(b *Basic) (key uint64, ok bool) {
	if b.Length < 0 || b.Length >= 1<<rowLenBits {
		return 0, false
	}
	return uint64(b.Proto)<<56 | uint64(b.SrcPort)<<40 | uint64(b.DstPort)<<24 |
		uint64(b.Flags&rowFlags)<<rowLenBits | uint64(b.Length), true
}

// Window is one closed aggregation window: its packets and their shared
// statistics.
type Window struct {
	// Start is the window's opening instant (aligned to the window size).
	Start sim.Time
	// Packets are the basic features of every packet captured in order.
	Packets []Basic
	// Stats is the statistical block shared by all packets.
	Stats Stats
}

// Vectors materializes one aggregated feature vector per packet.
func (w *Window) Vectors() [][]float64 {
	out := make([][]float64, len(w.Packets))
	for i := range w.Packets {
		out[i] = AppendVector(make([]float64, 0, NumFeatures()), &w.Packets[i], &w.Stats)
	}
	return out
}

// Extractor buckets a packet stream into fixed windows (1 s in the paper's
// experiments, user-configurable) and emits each closed window.
//
// The emitted *Window (including its Packets slice) is owned by the
// extractor and valid only for the duration of the OnWindow callback: the
// next window reuses the same storage. Callbacks that need to keep window
// data must copy it before returning.
type Extractor struct {
	window  sim.Time
	cur     []Basic
	curIdx  int64
	scratch statsScratch
	win     Window // reused emission buffer
	// OnWindow receives each closed, non-empty window. See the type comment
	// for the window's lifetime contract.
	OnWindow func(w *Window)
}

// NewExtractor returns an extractor with the given window length
// (default 1 s).
func NewExtractor(window time.Duration, onWindow func(w *Window)) *Extractor {
	if window <= 0 {
		window = time.Second
	}
	return &Extractor{window: sim.Time(window), curIdx: -1, OnWindow: onWindow}
}

// WindowSize reports the configured window length.
func (e *Extractor) WindowSize() time.Duration { return e.window.Duration() }

// Add feeds one packet (in non-decreasing time order). Crossing a window
// boundary closes and emits the previous window.
func (e *Extractor) Add(b Basic) {
	idx := int64(b.Time / e.window)
	if idx != e.curIdx {
		e.Flush()
		e.curIdx = idx
	}
	e.cur = append(e.cur, b)
}

// AddPacket dissects and feeds a captured frame; non-feature-bearing frames
// are ignored.
func (e *Extractor) AddPacket(p *packet.Packet) {
	if b, ok := FromPacket(p); ok {
		e.Add(b)
	}
}

// Flush closes the current window, emitting it if non-empty. Call once at
// end of stream. The emitted window is only valid during the OnWindow
// callback (see the Extractor contract).
func (e *Extractor) Flush() {
	if len(e.cur) == 0 {
		return
	}
	e.win = Window{
		Start:   sim.Time(e.curIdx) * e.window,
		Packets: e.cur,
		Stats:   e.scratch.compute(e.cur),
	}
	if e.OnWindow != nil {
		e.OnWindow(&e.win)
	}
	// Reclaim the packet buffer for the next window; drop the alias held by
	// the emission buffer so stale reads fail loudly rather than silently.
	e.cur = e.cur[:0]
	e.win.Packets = nil
}
