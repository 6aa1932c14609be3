//go:build !race

// The race detector makes sync.Pool (netsim's delivery events) drop what is
// put back, so allocation counts mean nothing under it.

package httpapp

import (
	"testing"
)

// TestHTTPTransactionAllocs pins what one GET/response cycle allocates on
// warm hosts, beyond the frames it puts on the wire (one allocation each:
// those are shared with taps and captures and are not recycled). What is
// left is per connection, not per byte: the two Conns and their timer and
// lifecycle closures, the client's fetch state, the server's accept
// closures. Before ISSUE 13 this test measured 94 allocations per cycle, 71
// beyond the same frames: a builder closure per segment, a timer method
// value per ACK, the body in three successive buffers.
func TestHTTPTransactionAllocs(t *testing.T) {
	const perTransaction = 18 // measured 15; the frames come on top
	s, ch, sh := pair(t)
	srv := NewServer(ServerConfig{Seed: 1})
	if err := srv.Attach(sh); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(sh.Addr(), 0, 0, 7)
	cl.host = ch // no Poisson loop: the test fires each fetch itself
	cycle := func() {
		cl.fetch()
		s.Drain()
	}
	for i := 0; i < 20; i++ {
		cycle() // warm the free lists, the pools and the connection tables
	}
	frames := func() uint64 {
		_, _, _, ctx, _ := ch.Stats()
		_, _, _, stx, _ := sh.Stats()
		return ctx + stx
	}
	const runs = 200
	before := frames()
	_, completedBefore, _, _ := cl.Stats()
	allocs := testing.AllocsPerRun(runs, cycle)
	perRun := float64(frames()-before) / (runs + 1)
	if _, completed, failed, _ := cl.Stats(); completed-completedBefore != runs+1 || failed != 0 {
		t.Fatalf("%d of %d fetches completed, %d failed", completed-completedBefore, runs+1, failed)
	}
	t.Logf("%.1f allocations per transaction, %.1f of them frames", allocs, perRun)
	if allocs > perRun+perTransaction {
		t.Fatalf("%.1f allocations per transaction of %.1f frames: more than %d beyond the frames",
			allocs, perRun, perTransaction)
	}
}
