//go:build !race

// The race detector makes sync.Pool (the delivery events) drop what is put
// back, so allocation counts mean nothing under it.

package netsim

import (
	"testing"
	"time"
)

// TestHopPathAllocFree pins the steady-state hop path — NIC tx, link
// serialization/propagation, switch forwarding, second link, NIC rx — at
// zero allocations per delivered frame. The transmit-done handler is
// pre-bound per direction and delivery events are pooled; a regression
// here silently multiplies GC pressure by the fleet's packet rate.
func TestHopPathAllocFree(t *testing.T) {
	s, _, nics := buildStar(t)
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
}
