//go:build !race

// The race detector makes sync.Pool (the delivery events, the frame buffers)
// drop what is put back, so allocation counts mean nothing under it.

package netsim

import (
	"testing"
	"time"

	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// TestHopPathAllocFree pins the steady-state hop path — NIC tx, link
// serialization/propagation, switch forwarding, second link, NIC rx — at
// zero allocations per delivered frame, flooded frames included. The
// transmit-done handler is pre-bound per direction, delivery events are
// pooled, and a flood's copies come from the frame pool and go back to it
// at the receiving NICs; a regression here silently multiplies GC pressure
// by the fleet's packet rate.
func TestHopPathAllocFree(t *testing.T) {
	s, sw, nics := buildStar(t)
	delivered := 0
	for _, nic := range nics {
		nic.SetHandler(func([]byte) { delivered++ })
	}
	ab := frame(nics[0].MAC(), nics[1].MAC(), 100)
	ba := frame(nics[1].MAC(), nics[0].MAC(), 0)
	// Teach the switch both MACs so the measured loop forwards, and warm
	// the event/arrival pools.
	nics[0].Send(ab)
	nics[1].Send(ba)
	s.Drain()
	allocs := testing.AllocsPerRun(200, func() {
		nics[0].Send(ab)
		s.Drain()
	})
	if allocs != 0 {
		t.Fatalf("hop path allocates %.1f times per frame, want 0", allocs)
	}
	if delivered == 0 {
		t.Fatal("no frames delivered")
	}

	// A saturated link: the sender offers one frame per serialization time
	// on top of a standing backlog, so the transmit queue is popped 100k
	// times and never drains. Re-slicing the queue on every pop made its
	// append reallocate for as long as the link stayed busy.
	const backlog, busyFrames = 64, 100_000
	perFrame := time.Duration(len(ab)*8) * time.Second / 100_000_000 // LinkConfig's default rate
	for i := 0; i < backlog; i++ {
		nics[0].Send(ab)
	}
	busy := func() {
		for i := 0; i < busyFrames; i++ {
			nics[0].Send(ab)
			if err := s.RunFor(perFrame); err != nil {
				t.Fatal(err)
			}
		}
	}
	busy() // grow the queue's array to what the backlog needs
	delivered = 0
	// One run of the whole loop, so the count is a total: a per-frame
	// average would round one reallocation per 64 frames down to zero.
	if allocs := testing.AllocsPerRun(1, busy); allocs != 0 {
		t.Fatalf("busy link allocates %.0f times in %d frames, want 0", allocs, busyFrames)
	}
	if q := &nics[0].link.dirs[0]; len(q.queue)-q.qhead < backlog-1 || cap(q.queue) > 4*backlog {
		t.Fatalf("transmit queue holds %d frames in %d slots; want the %d-frame backlog standing in a bounded array",
			len(q.queue)-q.qhead, cap(q.queue), backlog)
	}
	s.Drain()
	if delivered < 2*busyFrames {
		t.Fatalf("%d frames delivered through the busy link, want at least %d", delivered, 2*busyFrames)
	}

	// The switch's ARP branch: with a directory on the network a broadcast
	// request is parsed and looked up on the hop path, whether it is then
	// relayed out the owner's port or discarded for want of an owner.
	sw.net.SetARPDirectory(map[packet.Addr]packet.MAC{starAddr(1): nics[1].MAC()})
	owned := arpFrame(nics[0], starAddr(0), packet.ARPRequest, starAddr(1), packet.BroadcastMAC)
	unowned := arpFrame(nics[0], starAddr(0), packet.ARPRequest, starAddr(9), packet.BroadcastMAC)
	delivered = 0
	allocs = testing.AllocsPerRun(200, func() {
		nics[0].Send(owned)
		nics[0].Send(unowned)
		s.Drain()
	})
	if allocs != 0 {
		t.Fatalf("directed ARP allocates %.1f times per request pair, want 0", allocs)
	}
	if fwd, fld := sw.Stats(); delivered != 201 || sw.ARPSuppressed() != 201 || fld != 1 {
		t.Fatalf("%d requests delivered, %d suppressed, %d frames flooded (%d forwarded); want 201 to host 1 only, 201 suppressed, the one warm-up flood",
			delivered, sw.ARPSuppressed(), fld, fwd)
	}

	// A flood: every egress port but the last gets a copy of the frame, in
	// a buffer of the frame's size class.
	for _, size := range []int{28, 100} {
		bc := frame(nics[0].MAC(), packet.BroadcastMAC, size)
		delivered = 0
		allocs = testing.AllocsPerRun(200, func() {
			nics[0].Send(packet.CloneFrame(bc))
			s.Drain()
		})
		if allocs != 0 {
			t.Fatalf("a flood of %d-byte frames allocates %.1f times per frame, want 0", len(bc), allocs)
		}
		if want := 201 * (len(nics) - 1); delivered != want {
			t.Fatalf("%d flooded frames delivered, want %d", delivered, want)
		}
	}

	// A flooded ARP request whose receivers answer SetARPInert: the copies
	// gather into a batch the switch reuses, and the two receivers that
	// would change (host 1, which holds the batch's key, and host 3, which
	// does not) still take delivery, inline and by an arrival event.
	s, _, nics = buildStar(t)
	heard := 0
	for i, nic := range nics {
		nic.SetHandler(func([]byte) { heard++ })
		nic.SetARPInert(func(packet.ARP) bool { return i%2 == 0 })
	}
	req := arpFrame(nics[0], starAddr(0), packet.ARPRequest, starAddr(9), packet.BroadcastMAC)
	nics[0].Send(packet.CloneFrame(req))
	s.Drain()
	heard = 0
	allocs = testing.AllocsPerRun(200, func() {
		nics[0].Send(packet.CloneFrame(req))
		s.Drain()
	})
	if allocs != 0 {
		t.Fatalf("a batched ARP flood allocates %.1f times per request, want 0", allocs)
	}
	if rx, _, _, _ := nics[2].Stats(); heard != 2*201 || rx != 202 {
		t.Fatalf("%d requests heard and %d counted at an inert host, want 402 and 202", heard, rx)
	}
}

// TestHopPathEvents pins what a hop costs the scheduler: the arrival event
// that delivers the frame, and nothing for the transmitter — completion is a
// clock comparison, and an event marks it only while frames wait in the
// queue behind it, or for a lost frame, which has no arrival.
func TestHopPathEvents(t *testing.T) {
	fired := func(s *sim.Scheduler, run func()) uint64 {
		before := s.Fired()
		run()
		return s.Fired() - before
	}

	s, a, b := twoNodes(t, LinkConfig{})
	delivered := 0
	b.SetHandler(func([]byte) { delivered++ })
	f := frame(a.MAC(), b.MAC(), 100)
	if n := fired(s, func() { a.Send(f); s.Drain() }); n != 1 || delivered != 1 {
		t.Fatalf("one frame over an idle link: %d events, %d delivered; want 1 (arrival) and 1", n, delivered)
	}

	// Back to back, each frame still costs its one, and every frame but the
	// first waited in the queue: at most one completion each.
	const burst = 16
	delivered = 0
	n := fired(s, func() {
		for i := 0; i < burst; i++ {
			a.Send(f)
		}
		s.Drain()
	})
	if delivered != burst || n < burst || n > 2*burst-1 {
		t.Fatalf("%d-frame burst: %d events, %d delivered; want between %d and %d events", burst, n, delivered, burst, 2*burst-1)
	}

	// A lost frame schedules its completion and nothing else.
	ls, la, _ := twoNodes(t, LinkConfig{LossProb: 1})
	if n := fired(ls, func() { la.Send(f); ls.Drain() }); n != 1 {
		t.Fatalf("one lost frame over an idle link: %d events, want 1 (completion)", n)
	}

	// A flood starts a transmission on every other port at one instant and
	// queues behind none of them: the ingress hop's arrival and one arrival
	// per egress port.
	star, _, nics := buildStar(t)
	delivered = 0
	for _, nic := range nics {
		nic.SetHandler(func([]byte) { delivered++ })
	}
	bc := frame(nics[0].MAC(), packet.BroadcastMAC, 100)
	ports := len(nics) - 1
	if n := fired(star, func() { nics[0].Send(bc); star.Drain() }); n != uint64(1+ports) || delivered != ports {
		t.Fatalf("%d-port flood: %d events, %d delivered; want %d events and no completions", ports, n, delivered, 1+ports)
	}

	// The same flood of an ARP request whose receivers answer that it
	// changes nothing: the ingress hop's arrival and one batch.
	for _, nic := range nics {
		nic.SetARPInert(func(packet.ARP) bool { return true })
	}
	req := arpFrame(nics[0], starAddr(0), packet.ARPRequest, starAddr(9), packet.BroadcastMAC)
	if n := fired(star, func() { nics[0].Send(req); star.Drain() }); n != 2 {
		t.Fatalf("%d-port ARP flood to inert hosts: %d events, want 2", ports, n)
	}
}
