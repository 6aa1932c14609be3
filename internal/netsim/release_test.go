package netsim

import (
	"bytes"
	"math/bits"
	"testing"
	"time"

	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

// pooled builds a frame like frame does, in a recycled buffer: one the
// network releases at the frame's terminal point.
func pooled(src, dst packet.MAC, n int) []byte {
	f := packet.CloneFrame(frame(src, dst, n))
	for i := packet.EthernetHeaderLen; i < len(f); i++ {
		f[i] = byte(i) // a payload a stale or shared buffer would not match
	}
	return f
}

// receiver checks every frame it is handed against want while the handler
// runs, then scribbles over it: the frame is the receiver's alone, so a
// buffer shared with another receiver shows up there as a mismatch.
type receiver struct {
	t    *testing.T
	want []byte
	// flips is how many bits a delivered frame may differ from want by.
	flips int
	got   int
	bufs  map[*byte]bool
}

func newReceiver(t *testing.T, want []byte) *receiver {
	return &receiver{t: t, want: bytes.Clone(want), bufs: make(map[*byte]bool)}
}

func (r *receiver) handle(raw []byte) {
	r.t.Helper()
	r.got++
	if len(raw) != len(r.want) {
		r.t.Fatalf("frame of %d bytes delivered, want %d", len(raw), len(r.want))
	}
	flipped := 0
	for i := range raw {
		flipped += bits.OnesCount8(raw[i] ^ r.want[i])
	}
	if flipped != r.flips {
		r.t.Fatalf("delivered frame differs from the one sent in %d bits, want %d", flipped, r.flips)
	}
	if r.bufs[&raw[0]] {
		r.t.Fatal("two deliveries arrived in the same buffer")
	}
	r.bufs[&raw[0]] = true
	for i := range raw {
		raw[i] = 0xEE
	}
}

// requireLedger checks the network's frame account after a drained run:
// entered frames against want, every one released once, none in flight.
func requireLedger(t *testing.T, n *Network, sent, copies uint64) {
	t.Helper()
	lg := n.Ledger()
	if lg.Sent != sent || lg.Copies != copies || lg.Released != sent+copies || lg.InFlight != 0 {
		t.Fatalf("ledger %+v, want %d sent, %d copies, all %d released, none in flight",
			lg, sent, copies, sent+copies)
	}
}

// TestFloodHandsEachPortItsOwnFrame floods a frame to every port of an
// eight-port switch, once in each buffer size: each receiver gets the bytes
// sent in a buffer no other receiver holds, and the original plus its six
// copies are each released once.
func TestFloodHandsEachPortItsOwnFrame(t *testing.T) {
	for _, size := range []int{28, 200} { // an ARP-sized frame, a larger one
		s := sim.NewScheduler()
		n := New(s)
		sw := n.NewSwitch("sw0")
		nics := make([]*NIC, 8)
		for i := range nics {
			nics[i] = n.NewNode("host").AddNIC()
			n.Connect(nics[i], sw.NewPort(), LinkConfig{})
		}
		f := pooled(nics[0].MAC(), packet.BroadcastMAC, size)
		r := newReceiver(t, f)
		for _, nic := range nics[1:] {
			nic.SetHandler(r.handle)
		}
		nics[0].Send(f)
		s.Drain()
		if r.got != len(nics)-1 {
			t.Fatalf("%d ports received the flood, want %d", r.got, len(nics)-1)
		}
		requireLedger(t, n, 1, uint64(len(nics)-2))
	}
}

// TestDuplicateIsACopy: a duplicated frame arrives twice, intact, in two
// buffers.
func TestDuplicateIsACopy(t *testing.T) {
	s, a, b := twoNodes(t, LinkConfig{})
	impairBoth(a.link, Impairments{DupProb: 1, RNG: sim.NewRNG(3)})
	f := pooled(a.MAC(), b.MAC(), 300)
	r := newReceiver(t, f)
	b.SetHandler(r.handle)
	a.Send(f)
	s.Drain()
	if r.got != 2 {
		t.Fatalf("%d deliveries, want the frame and its duplicate", r.got)
	}
	requireLedger(t, a.node.net, 1, 1)
}

// TestCorruptionReleasesTheOriginal: the receiver gets a copy with one bit
// flipped; the original is released at the link.
func TestCorruptionReleasesTheOriginal(t *testing.T) {
	s, a, b := twoNodes(t, LinkConfig{})
	impairBoth(a.link, Impairments{CorruptProb: 1, DupProb: 1, RNG: sim.NewRNG(7)})
	f := pooled(a.MAC(), b.MAC(), 100)
	r := newReceiver(t, f)
	r.flips = 1
	b.SetHandler(r.handle)
	a.Send(f)
	s.Drain()
	if r.got != 2 {
		t.Fatalf("%d deliveries, want the corrupted frame and its duplicate", r.got)
	}
	// The corrupted copy replaces the original; the duplicate copies it.
	requireLedger(t, a.node.net, 1, 2)
}

// TestEveryDropReleasesTheFrame sends one recycled frame into each terminal
// point short of a receive handler. None reaches a handler, the cause's own
// counter moves, and the network releases the frame exactly once.
func TestEveryDropReleasesTheFrame(t *testing.T) {
	type setup struct {
		net    *Network
		s      *sim.Scheduler
		send   func()
		copies uint64
		// counter is the count the case's terminal point moves.
		counter func() uint64
	}
	noHandler := func(t *testing.T, nics ...*NIC) {
		for _, nic := range nics {
			nic.SetHandler(func([]byte) { t.Fatal("a dropped frame reached a handler") })
		}
	}
	pair := func(t *testing.T, cfg LinkConfig) (*sim.Scheduler, *NIC, *NIC) {
		s, a, b := twoNodes(t, cfg)
		noHandler(t, b)
		return s, a, b
	}
	star := func(t *testing.T) (*sim.Scheduler, *Switch, []*NIC) {
		s, sw, nics := buildStar(t)
		// Teach the switch every host, then stop listening.
		for _, nic := range nics {
			nic.Send(frame(nic.MAC(), packet.BroadcastMAC, 0))
		}
		s.Drain()
		noHandler(t, nics...)
		return s, sw, nics
	}
	cases := map[string]func(t *testing.T) setup{
		"link-down": func(t *testing.T) setup {
			s, a, b := pair(t, LinkConfig{})
			setLinkUp(a.link, false)
			return setup{a.node.net, s, func() { a.Send(pooled(a.MAC(), b.MAC(), 64)) },
				0, func() uint64 { return a.link.Counters().QueueDrops }}
		},
		"queue-full": func(t *testing.T) setup {
			s, a, b := pair(t, LinkConfig{QueueBytes: 100})
			b.SetHandler(func([]byte) {})     // f gets through
			f := frame(a.MAC(), b.MAC(), 200) // the sender's own: not recycled
			return setup{a.node.net, s, func() {
				a.Send(f)
				a.Send(pooled(a.MAC(), b.MAC(), 200))
			}, 0, func() uint64 { return a.link.Counters().QueueDrops }}
		},
		"loss": func(t *testing.T) setup {
			s, a, b := pair(t, LinkConfig{LossProb: 1})
			return setup{a.node.net, s, func() { a.Send(pooled(a.MAC(), b.MAC(), 64)) },
				0, func() uint64 { return a.link.Counters().LossFrames }}
		},
		"impairment-loss": func(t *testing.T) setup {
			s, a, b := pair(t, LinkConfig{})
			impairBoth(a.link, Impairments{LossProb: 1, RNG: sim.NewRNG(1)})
			return setup{a.node.net, s, func() { a.Send(pooled(a.MAC(), b.MAC(), 64)) },
				0, func() uint64 { return a.link.Counters().LossFrames }}
		},
		"in-flight-cut": func(t *testing.T) setup {
			s, a, b := pair(t, LinkConfig{Delay: 10 * sim.Millisecond})
			return setup{a.node.net, s, func() {
				a.Send(pooled(a.MAC(), b.MAC(), 64))
				s.At(sim.Millisecond, func() { setLinkUp(a.link, false) })
			}, 0, func() uint64 { return a.link.Counters().InFlightDrops }}
		},
		"corrupted-then-cut": func(t *testing.T) setup {
			s, a, b := pair(t, LinkConfig{Delay: 10 * sim.Millisecond})
			impairBoth(a.link, Impairments{CorruptProb: 1, DupProb: 1, RNG: sim.NewRNG(1)})
			return setup{a.node.net, s, func() {
				a.Send(pooled(a.MAC(), b.MAC(), 64))
				s.At(sim.Millisecond, func() { setLinkUp(a.link, false) })
			}, 2, func() uint64 { return a.link.Counters().InFlightDrops }}
		},
		"unattached": func(t *testing.T) setup {
			s := sim.NewScheduler()
			n := New(s)
			nic := n.NewNode("lonely").AddNIC()
			return setup{n, s, func() { nic.Send(pooled(nic.MAC(), packet.BroadcastMAC, 64)) },
				0, func() uint64 { return nic.ledger().released }}
		},
		"ingress": func(t *testing.T) setup {
			s, a, b := pair(t, LinkConfig{})
			b.SetIngressFilterCtx(func([]byte, trace.Context) bool { return false })
			return setup{a.node.net, s, func() { a.Send(pooled(a.MAC(), b.MAC(), 64)) },
				0, b.IngressDropped}
		},
		"no-handler": func(t *testing.T) setup {
			s, a, b := twoNodes(t, LinkConfig{})
			return setup{a.node.net, s, func() { a.Send(pooled(a.MAC(), b.MAC(), 64)) },
				0, func() uint64 { rx, _, _, _ := b.Stats(); return rx }}
		},
		"malformed": func(t *testing.T) setup {
			s, sw, nics := star(t)
			runt := packet.CloneFrame(make([]byte, packet.EthernetHeaderLen-1))
			return setup{sw.net, s, func() { nics[0].Send(runt) },
				0, func() uint64 { return sw.ledger().released }}
		},
		"arp-suppressed": func(t *testing.T) setup {
			s, sw, nics := star(t)
			sw.net.SetARPDirectory(map[packet.Addr]packet.MAC{})
			req := packet.BuildARP(nics[0].MAC(), packet.BroadcastMAC, packet.ARP{
				Op: packet.ARPRequest, SenderMAC: nics[0].MAC(), SenderIP: starAddr(0), TargetIP: starAddr(9),
			})
			return setup{sw.net, s, func() { nics[0].Send(req) }, 0, sw.ARPSuppressed}
		},
		"partition": func(t *testing.T) setup {
			s, sw, nics := star(t)
			sw.SetGroup(nics[1].link.Ends()[1], 1)
			return setup{sw.net, s, func() { nics[0].Send(pooled(nics[0].MAC(), nics[1].MAC(), 64)) },
				0, sw.PartitionDrops}
		},
		"same-port": func(t *testing.T) setup {
			s, sw, nics := star(t)
			behind := packet.MACFromUint64(1000)
			sw.Learn(behind, nics[0].link.Ends()[1])
			return setup{sw.net, s, func() { nics[0].Send(pooled(nics[0].MAC(), behind, 64)) },
				0, func() uint64 { return sw.ledger().released }}
		},
		"lone-port-flood": func(t *testing.T) setup {
			s, sw, nics := star(t)
			for i := 1; i < len(nics); i++ {
				sw.SetGroup(nics[i].link.Ends()[1], 1)
			}
			return setup{sw.net, s, func() { nics[0].Send(pooled(nics[0].MAC(), packet.BroadcastMAC, 64)) },
				0, func() uint64 { return sw.ledger().released }}
		},
		"unwired-port": func(t *testing.T) setup {
			s, sw, nics := star(t)
			for i := 1; i < len(nics); i++ {
				sw.SetGroup(nics[i].link.Ends()[1], 1)
			}
			sw.NewPort() // in nics[0]'s group, never connected
			return setup{sw.net, s, func() { nics[0].Send(pooled(nics[0].MAC(), packet.BroadcastMAC, 64)) },
				0, func() uint64 { return sw.ledger().released }}
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			c := build(t)
			before, was := c.net.Ledger(), c.counter()
			c.send()
			c.s.Drain()
			after := c.net.Ledger()
			sent := after.Sent - before.Sent
			copies := after.Copies - before.Copies
			released := after.Released - before.Released
			if copies != c.copies || released != sent+copies || after.InFlight != 0 {
				t.Fatalf("ledger moved from %+v to %+v: want %d copies and every frame released",
					before, after, c.copies)
			}
			if c.counter() == was {
				t.Fatal("the case did not reach its terminal point")
			}
		})
	}
}

// TestLinkLedgerBalances checks each direction's account on a busy, lossy,
// impaired link, read mid-run while frames are still queued and in the air.
func TestLinkLedgerBalances(t *testing.T) {
	s, a, b := twoNodes(t, LinkConfig{RateBps: 10_000_000, Delay: 5 * sim.Millisecond,
		QueueBytes: 4000, LossProb: 0.1})
	impairBoth(a.link, Impairments{CorruptProb: 0.1, DupProb: 0.1, ReorderProb: 0.1, LossProb: 0.05, RNG: sim.NewRNG(9)})
	b.SetHandler(func([]byte) {})
	a.SetHandler(func([]byte) {})
	for i := 0; i < 400; i++ {
		at := sim.Time(i) * 50 * sim.Microsecond
		s.At(at, func() {
			a.Send(pooled(a.MAC(), b.MAC(), 200))
			b.Send(pooled(b.MAC(), a.MAC(), 60))
		})
	}
	s.At(8*sim.Millisecond, func() { a.link.SetUpSide(1, false) })
	s.At(9*sim.Millisecond, func() { a.link.SetUpSide(1, true) })
	check := func(when string, drained bool) {
		var inFlight uint64
		for side := 0; side < 2; side++ {
			lg := a.link.LedgerSide(side)
			out := lg.Delivered + lg.QueueDrops + lg.LossDrops + lg.CutDrops + lg.InFlight()
			if lg.Offered+lg.Duplicated != out {
				t.Fatalf("%s, side %d: %+v does not balance", when, side, lg)
			}
			inFlight += lg.InFlight()
		}
		nl := a.node.net.Ledger()
		if nl.Sent+nl.Copies-nl.Released != nl.InFlight || nl.InFlight != inFlight {
			t.Fatalf("%s: network ledger %+v, links hold %d in flight", when, nl, inFlight)
		}
		if drained != (inFlight == 0) {
			t.Fatalf("%s: %d frames in flight", when, inFlight)
		}
	}
	if err := s.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	check("mid-run", false)
	s.Drain()
	check("drained", true)
	lg := a.link.LedgerSide(0)
	if lg.QueueDrops == 0 || lg.LossDrops == 0 || lg.CutDrops == 0 || lg.Duplicated == 0 {
		t.Fatalf("side 0 %+v: want every kind of drop and a duplicate", lg)
	}
}
