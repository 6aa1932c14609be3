package netstack

import (
	"bytes"
	"fmt"
	"testing"

	"ddoshield/internal/netsim"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
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
					e.pending = []parked{{frame: packet.AppendARP(nil, h.MAC(), packet.MAC{}, packet.ARP{Op: packet.ARPRequest})}}
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

// TestParkedFramesSettle parks three frames and three ResolveMAC callers,
// interleaved, on one unresolved neighbour, and settles the entry each way
// it can be settled: by the neighbour's ARP reply, by AddStaticARP before
// that reply, and by the give-up after the third unanswered request. Every
// frame and caller is handed over once, in arrival order, at the settling
// instant; a sent frame is byte for byte the frame built with the resolved
// MAC, and a frame the give-up drops is released.
func TestParkedFramesSettle(t *testing.T) {
	cases := []struct {
		name   string
		absent bool // the neighbour does not exist: ARP gives up
		static bool // AddStaticARP binds the neighbour at once
	}{
		{name: "reply"},
		{name: "static", static: true},
		{name: "give-up", absent: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, hosts := lan(t, 2, netsim.LinkConfig{})
			a, b := hosts[0], hosts[1]
			hop := b.Addr()
			if tc.absent {
				hop = packet.AddrFrom4(10, 0, 0, 200)
			}
			tr := trace.New(trace.Config{SampleRate: 1})
			// roots lists the origin spans finished so far, in finish order.
			roots := func() []trace.Span {
				var out []trace.Span
				for _, sp := range tr.Spans() {
					if sp.Root() {
						out = append(out, sp)
					}
				}
				return out
			}
			var received [][]byte
			b.NIC().SetIngressFilterCtx(func(raw []byte, _ trace.Context) bool {
				if eth, _, err := packet.UnmarshalEthernet(raw); err == nil && eth.Type == packet.EtherTypeIPv4 {
					received = append(received, bytes.Clone(raw))
				}
				return true
			})
			type report struct {
				mac    packet.MAC
				ok     bool
				at     sim.Time
				before int // frames handed over ahead of the report
			}
			reports := make([][]report, 3)
			var parkedFrames, want [][]byte
			for i := 0; i < 3; i++ {
				ip := packet.IPv4{TTL: ipTTL, ID: uint16(i), Src: a.Addr(), Dst: hop}
				udp := packet.UDP{SrcPort: uint16(5000 + i), DstPort: 9}
				payload := []byte{byte(i), 1, 2, 3}
				f := packet.BuildUDP(a.MAC(), packet.MAC{}, ip, udp, payload)
				parkedFrames = append(parkedFrames, f)
				want = append(want, packet.AppendUDP(nil, a.MAC(), b.MAC(), ip, udp, payload))
				flow := trace.Flow{Src: a.Addr().Uint32(), Dst: hop.Uint32(), SrcPort: udp.SrcPort, DstPort: udp.DstPort, Proto: packet.ProtoUDP}
				a.SendFrame(hop, f, tr.Origin(s.Now(), flow, "udp-tx", a.Name()))
				a.ResolveMAC(hop, func(mac packet.MAC, ok bool) {
					reports[i] = append(reports[i], report{mac, ok, s.Now(), len(roots())})
				})
			}
			if tc.static {
				a.AddStaticARP(b.Addr(), b.MAC())
			}
			if err := s.Run(5 * sim.Second); err != nil {
				t.Fatal(err)
			}

			settledAt := reports[0][0].at
			for i, rs := range reports {
				wantReport := report{mac: b.MAC(), ok: true, at: settledAt, before: i + 1}
				if tc.absent {
					wantReport.mac, wantReport.ok = packet.MAC{}, false
				}
				if len(rs) != 1 || rs[0] != wantReport {
					t.Errorf("caller %d: reports %+v, want one %+v", i, rs, wantReport)
				}
			}
			switch {
			case tc.static && settledAt != 0:
				t.Errorf("AddStaticARP settled the entry at %v, want 0", settledAt)
			case tc.absent && settledAt != sim.Time(arpMaxTries*arpRetryInterval):
				t.Errorf("gave up at %v, want %v", settledAt, arpMaxTries*arpRetryInterval)
			}
			spans := roots()
			if len(spans) != 3 {
				t.Fatalf("%d origin spans finished, want 3", len(spans))
			}
			for i, sp := range spans {
				wantDrop := trace.DropNone
				if tc.absent {
					wantDrop = trace.DropNoRoute
				}
				if sp.Flow.SrcPort != uint16(5000+i) || sp.End != settledAt || sp.Drop != wantDrop {
					t.Errorf("origin span %d: port %d, end %v, drop %v; want port %d, end %v, drop %v",
						i, sp.Flow.SrcPort, sp.End, sp.Drop, 5000+i, settledAt, wantDrop)
				}
			}
			if tc.absent {
				if len(received) != 0 {
					t.Errorf("%d frames left after the give-up", len(received))
				}
				for i, f := range parkedFrames {
					if releasePoisons && !bytes.Equal(f, bytes.Repeat([]byte{0xDB}, len(f))) {
						t.Errorf("parked frame %d was not released at the give-up", i)
					}
				}
				return
			}
			if len(received) != len(want) {
				t.Fatalf("neighbour received %d frames, want %d", len(received), len(want))
			}
			for i := range want {
				if !bytes.Equal(received[i], want[i]) {
					t.Errorf("frame %d left as\n  %x\nwant the frame built with the resolved MAC\n  %x", i, received[i], want[i])
				}
			}
		})
	}
}
