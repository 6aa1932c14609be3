package netsim

import (
	"strings"
	"testing"

	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/telemetry/trace"
)

// starAddr is the address host i of a buildStar topology answers for.
func starAddr(i int) packet.Addr { return packet.AddrFrom4(10, 0, 0, byte(1+i)) }

// arpFrame builds an ARP frame from src's point of view: op asking about
// (or, for a reply, answering) target, Ethernet destination dst. The frame
// is in a buffer of the test's own, never recycled, so a test may send it
// more than once.
func arpFrame(src *NIC, srcIP packet.Addr, op uint16, target packet.Addr, dst packet.MAC) []byte {
	return packet.AppendARP(nil, src.MAC(), dst, packet.ARP{
		Op: op, SenderMAC: src.MAC(), SenderIP: srcIP, TargetIP: target,
	})
}

// TestDirectedARP walks a four-host star through every branch a broadcast
// takes at a switch whose network has (or has not) an ARP directory. Host 0
// always sends; hosts 0..3 own starAddr(0..3), and behindPort0 is a host the
// directory places behind the ingress port.
func TestDirectedARP(t *testing.T) {
	unowned := packet.AddrFrom4(10, 0, 0, 200)
	behindPort0 := packet.AddrFrom4(10, 0, 0, 100)
	behindPort0MAC := packet.MACFromUint64(0xbeef)

	request := func(target packet.Addr) func([]*NIC) []byte {
		return func(nics []*NIC) []byte {
			return arpFrame(nics[0], starAddr(0), packet.ARPRequest, target, packet.BroadcastMAC)
		}
	}
	for _, tc := range []struct {
		name     string
		unprimed bool                     // no directory on the network
		learn    []int                    // hosts whose MAC the switch has learned (behindPort0 always is)
		frame    func(nics []*NIC) []byte // sent by host 0
		rx       [4]int                   // frames each host receives
		fwd, fld uint64                   // switch forwarded / flooded
		supp     uint64                   // arp-suppressed
	}{
		{name: "owner known, MAC learned: one egress port",
			learn: []int{2}, frame: request(starAddr(2)), rx: [4]int{0, 0, 1, 0}, fwd: 1},
		{name: "owner behind the ingress port: nothing relayed",
			frame: request(behindPort0)},
		{name: "owner known, MAC not learned: flood",
			frame: request(starAddr(2)), rx: [4]int{0, 1, 1, 1}, fld: 1},
		{name: "no owner: suppressed",
			learn: []int{1, 2, 3}, frame: request(unowned), supp: 1},
		{name: "broadcast reply: flood",
			learn: []int{2}, rx: [4]int{0, 1, 1, 1}, fld: 1,
			frame: func(nics []*NIC) []byte {
				return arpFrame(nics[0], starAddr(0), packet.ARPReply, starAddr(2), packet.BroadcastMAC)
			}},
		{name: "gratuitous request: flood",
			learn: []int{2}, frame: request(starAddr(0)), rx: [4]int{0, 1, 1, 1}, fld: 1},
		{name: "gratuitous request for an unowned address: flood",
			rx: [4]int{0, 1, 1, 1}, fld: 1,
			frame: func(nics []*NIC) []byte {
				return arpFrame(nics[0], unowned, packet.ARPRequest, unowned, packet.BroadcastMAC)
			}},
		{name: "non-ARP broadcast: flood",
			learn: []int{2}, rx: [4]int{0, 1, 1, 1}, fld: 1,
			frame: func(nics []*NIC) []byte { return frame(nics[0].MAC(), packet.BroadcastMAC, 64) }},
		{name: "truncated ARP: flood",
			rx: [4]int{0, 1, 1, 1}, fld: 1,
			frame: func(nics []*NIC) []byte { return request(unowned)(nics)[:packet.EthernetHeaderLen+10] }},
		{name: "unicast ARP request: forwarded by its Ethernet destination",
			learn: []int{3}, rx: [4]int{0, 0, 0, 1}, fwd: 1,
			frame: func(nics []*NIC) []byte {
				return arpFrame(nics[0], starAddr(0), packet.ARPRequest, unowned, nics[3].MAC())
			}},
		{name: "un-primed network, unowned target: flood",
			unprimed: true, frame: request(unowned), rx: [4]int{0, 1, 1, 1}, fld: 1},
		{name: "un-primed network, learned owner: flood",
			unprimed: true, learn: []int{2}, frame: request(starAddr(2)), rx: [4]int{0, 1, 1, 1}, fld: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, sw, nics := buildStar(t)
			if !tc.unprimed {
				owners := map[packet.Addr]packet.MAC{behindPort0: behindPort0MAC}
				for i, nic := range nics {
					owners[starAddr(i)] = nic.MAC()
				}
				sw.net.SetARPDirectory(owners)
			}
			sw.Learn(behindPort0MAC, nics[0].link.ends[1])
			for _, i := range tc.learn {
				sw.Learn(nics[i].MAC(), nics[i].link.ends[1])
			}
			var rx [4]int
			for i, nic := range nics {
				nic.SetHandler(func([]byte) { rx[i]++ })
			}
			nics[0].Send(tc.frame(nics))
			s.Drain()
			fwd, fld := sw.Stats()
			if rx != tc.rx || fwd != tc.fwd || fld != tc.fld || sw.ARPSuppressed() != tc.supp {
				t.Fatalf("rx=%v forwarded=%d flooded=%d arp-suppressed=%d,\nwant rx=%v forwarded=%d flooded=%d arp-suppressed=%d",
					rx, fwd, fld, sw.ARPSuppressed(), tc.rx, tc.fwd, tc.fld, tc.supp)
			}
		})
	}
}

// TestDirectedARPAcrossSwitches checks that every switch on the path makes
// the decision for itself: the request is relayed core → edge → owner, and a
// question nobody can answer never leaves the first switch.
func TestDirectedARPAcrossSwitches(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	core, edge := net.NewSwitch("core"), net.NewSwitch("edge")
	corePort, edgePort := core.NewPort(), edge.NewPort()
	net.Connect(corePort, edgePort, LinkConfig{})
	asker := net.NewNode("asker").AddNIC()
	net.Connect(asker, core.NewPort(), LinkConfig{})
	var leaves [3]*NIC
	var rx [3]int
	owners := map[packet.Addr]packet.MAC{}
	for i := range leaves {
		leaves[i] = net.NewNode("leaf").AddNIC()
		net.Connect(leaves[i], edge.NewPort(), LinkConfig{})
		leaves[i].SetHandler(func([]byte) { rx[i]++ })
		owners[starAddr(i)] = leaves[i].MAC()
		core.Learn(leaves[i].MAC(), corePort)
		edge.Learn(leaves[i].MAC(), leaves[i].link.ends[1])
	}
	net.SetARPDirectory(owners)

	asker.Send(arpFrame(asker, starAddr(9), packet.ARPRequest, starAddr(1), packet.BroadcastMAC))
	asker.Send(arpFrame(asker, starAddr(9), packet.ARPRequest, starAddr(8), packet.BroadcastMAC))
	s.Drain()
	if rx != [3]int{0, 1, 0} {
		t.Fatalf("leaves received %v, want only leaf 1 to hear the request for its address", rx)
	}
	if c, e := core.ARPSuppressed(), edge.ARPSuppressed(); c != 1 || e != 0 {
		t.Fatalf("arp-suppressed core=%d edge=%d, want 1 and 0: the first switch discards", c, e)
	}
	if _, fld := core.Stats(); fld != 0 {
		t.Fatalf("core flooded %d frames, want 0", fld)
	}
	if _, fld := edge.Stats(); fld != 0 {
		t.Fatalf("edge flooded %d frames, want 0", fld)
	}
}

// TestARPSuppressedObservability pins where the discard shows up: the
// per-switch series and the trace_drops_total cause line (both exported only
// by a network that has a directory, from the moment it is installed), the
// flight recorder, and — for a sampled frame — a switch span dropped with
// cause arp-suppressed.
func TestARPSuppressedObservability(t *testing.T) {
	const series = "netsim_switch_arp_suppressed_total"
	const cause = `trace_drops_total{cause="arp-suppressed"}`

	build := func(primed bool) (*sim.Scheduler, *Switch, []*NIC, *telemetry.Registry, *telemetry.Recorder, *trace.Tracer) {
		s := sim.NewScheduler()
		net := New(s)
		reg, rec := telemetry.NewRegistry(), telemetry.NewRecorder(64)
		net.SetTelemetry(reg, rec)
		tr := trace.New(trace.Config{SampleRate: 1, Registry: reg})
		net.SetTracer(tr)
		sw := net.NewSwitch("sw0")
		nics := make([]*NIC, 3)
		owners := map[packet.Addr]packet.MAC{}
		for i := range nics {
			nics[i] = net.NewNode("host").AddNIC()
			net.Connect(nics[i], sw.NewPort(), LinkConfig{})
			nics[i].SetHandler(func([]byte) {})
			owners[starAddr(i)] = nics[i].MAC()
		}
		if primed {
			net.SetARPDirectory(owners)
		}
		return s, sw, nics, reg, rec, tr
	}
	ask := func(s *sim.Scheduler, src *NIC, tr *trace.Tracer) {
		flow := trace.Flow{Src: starAddr(0).Uint32(), Dst: starAddr(50).Uint32()}
		tc := tr.OriginKind(s.Now(), flow, trace.KindBenign, "arp-tx", "host")
		src.SendCtx(arpFrame(src, starAddr(0), packet.ARPRequest, starAddr(50), packet.BroadcastMAC), tc)
		tc.Finish(s.Now())
		s.Drain()
	}

	s, sw, nics, reg, _, tr := build(false)
	ask(s, nics[0], tr)
	if text := promText(t, reg); strings.Contains(text, series) || strings.Contains(text, cause) {
		t.Fatalf("a network without a directory exports arp-suppressed series:\n%s", text)
	}
	if sw.ARPSuppressed() != 0 {
		t.Fatalf("un-primed switch suppressed %d requests", sw.ARPSuppressed())
	}

	s, sw, nics, reg, rec, tr := build(true)
	if text := promText(t, reg); !strings.Contains(text, series+`{switch="sw0"} 0`) || !strings.Contains(text, cause+" 0") {
		t.Fatalf("before any discard want both series at 0:\n%s", text)
	}
	ask(s, nics[0], tr)
	text := promText(t, reg)
	if !strings.Contains(text, series+`{switch="sw0"} 1`) || !strings.Contains(text, cause+" 1") {
		t.Fatalf("after one discard want both series at 1:\n%s", text)
	}
	if sw.ARPSuppressed() != 1 {
		t.Fatalf("ARPSuppressed() = %d, want 1", sw.ARPSuppressed())
	}
	recorded := false
	for _, ev := range rec.Events() {
		if ev.Name == "arp-suppressed" && ev.Actor == "sw0/port0" {
			recorded = true
		}
	}
	if !recorded {
		t.Fatalf("flight recorder holds no arp-suppressed event from sw0/port0: %+v", rec.Events())
	}
	dropped := false
	for _, sp := range tr.Spans() {
		if sp.Name == "switch" && sp.Drop == trace.DropARPSuppressed {
			dropped = true
		}
	}
	if !dropped {
		t.Fatalf("no switch span dropped as arp-suppressed: %+v", tr.Spans())
	}
}
