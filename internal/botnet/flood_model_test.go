package botnet

import (
	"testing"
	"time"

	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// Closed-form checks of the flood engine: every expected value below is
// computed from the pacing and backlog arithmetic, never recorded from a
// run. The bot's ARP entry for the target is primed, so pacing starts at
// Start for every vector.

// TestFloodPacingClosedForm: a flood of λ units/s for D starts a
// floodBatchInterval ticker at Start and stops at the tick that reaches D,
// so it emits on D/floodBatchInterval − 1 ticks, λ·floodBatchInterval
// units each (an integer for the rates below), and reports done at D.
func TestFloodPacingClosedForm(t *testing.T) {
	const d = 2 * time.Second
	for _, tc := range []struct {
		typ AttackType
		pps int
	}{
		{AttackSYN, 500},
		{AttackHTTP, 200}, // units are connections
	} {
		r := newRig()
		bot := r.host(10)
		target := r.host(0x0100 + 1)
		miniHTTPServer(t, target)
		bot.AddStaticARP(target.Addr(), target.MAC())
		var syns uint64
		r.tapHost(target, decodeTap(func(p *packet.Packet) {
			if p.HasTCP && p.IPv4.Dst == target.Addr() && p.TCP.Flags == packet.FlagSYN {
				syns++
			}
		}))
		f := NewFlood(bot, sim.NewRNG(1), Command{Type: tc.typ, Target: target.Addr(), Port: 80, Duration: d, PPS: tc.pps},
			packet.Prefix{Addr: packet.AddrFrom4(10, 0, 200, 0), Bits: 24})
		var doneAt sim.Time
		f.OnDone = func() { doneAt = r.sched.Now() }
		start := r.sched.Now()
		f.Start()
		if err := r.sched.RunFor(d + time.Second); err != nil {
			t.Fatal(err)
		}
		ticks := uint64(d/floodBatchInterval) - 1
		want := ticks * uint64(tc.pps) * uint64(floodBatchInterval) / uint64(time.Second)
		if f.Sent() != want {
			t.Errorf("%v at %d/s for %v: Sent() = %d, want (%d ticks)·%d = %d",
				tc.typ, tc.pps, d, f.Sent(), ticks, want/ticks, want)
		}
		// One SYN reaches the target per unit: a spoofed SYN, or the
		// opening SYN of one GET connection.
		if syns != want {
			t.Errorf("%v: %d SYNs reached the target, want %d", tc.typ, syns, want)
		}
		if doneAt != start.Add(d) {
			t.Errorf("%v: done at %v, want %v", tc.typ, doneAt, start.Add(d))
		}
	}
}

// TestSYNFloodOverflowsBacklog: a spoofed SYN flood's N SYNs, on distinct
// 4-tuples and over less than synRcvdTimeout (5 s, so no half-open entry
// expires and none completes), fill a backlog of B and are dropped after
// it: exactly N − B drops.
func TestSYNFloodOverflowsBacklog(t *testing.T) {
	const backlog = 64
	r := newRig()
	bot := r.host(10)
	target := r.host(0x0100 + 1)
	l, err := target.ListenTCP(80, backlog, func(*netstack.Conn) {})
	if err != nil {
		t.Fatal(err)
	}
	bot.AddStaticARP(target.Addr(), target.MAC())
	type tuple struct {
		src  packet.Addr
		port uint16
	}
	seen := map[tuple]bool{}
	dup := 0
	r.tapHost(target, decodeTap(func(p *packet.Packet) {
		if p.HasTCP && p.IPv4.Dst == target.Addr() && p.TCP.Flags == packet.FlagSYN {
			k := tuple{p.IPv4.Src, p.TCP.SrcPort}
			if seen[k] {
				dup++
			}
			seen[k] = true
		}
	}))
	f := NewFlood(bot, sim.NewRNG(3), Command{Type: AttackSYN, Target: target.Addr(), Port: 80, Duration: time.Second, PPS: 500},
		packet.Prefix{Addr: packet.AddrFrom4(10, 0, 200, 0), Bits: 24})
	f.Start()
	if err := r.sched.RunFor(2 * time.Second); err != nil { // < synRcvdTimeout after the first SYN
		t.Fatal(err)
	}
	n := f.Sent()
	if dup != 0 || uint64(len(seen)) != n {
		t.Fatalf("%d SYNs on %d distinct 4-tuples (%d repeats): the formula needs them distinct", n, len(seen), dup)
	}
	if n <= backlog {
		t.Fatalf("only %d SYNs for a backlog of %d", n, backlog)
	}
	accepted, dropped, expired := l.Stats()
	if dropped != n-backlog || accepted != 0 || expired != 0 {
		t.Fatalf("N=%d, B=%d: accepted=%d dropped=%d expired=%d, want 0, N−B=%d, 0",
			n, backlog, accepted, dropped, expired, n-backlog)
	}
}
