//go:build !race

// The race detector makes sync.Pool (netsim's delivery events, the frame
// buffers) drop what is put back, so allocation counts mean nothing under it.

package httpapp

import (
	"testing"
)

// TestHTTPTransactionAllocs pins what one GET/response cycle allocates on
// warm hosts. The frames it puts on the wire cost nothing: they are built
// into recycled buffers and released by the NIC that receives them. What is
// left is per connection, not per byte or per frame: the two Conns and their
// timer and lifecycle closures, the client's fetch state, the server's
// accept closures. This test once measured 94 allocations per cycle, 71
// beyond the frames: a builder closure per segment, a timer method value per
// ACK, the body in three successive buffers; then 38, one per frame beyond
// the 15 per connection.
func TestHTTPTransactionAllocs(t *testing.T) {
	const perTransaction = 18 // measured 15, over about 23 frames
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
		_, _, ctx, _ := ch.NIC().Stats()
		_, _, stx, _ := sh.NIC().Stats()
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
	t.Logf("%.1f allocations per transaction of %.1f frames", allocs, perRun)
	if allocs > perTransaction {
		t.Fatalf("%.1f allocations per transaction of %.1f frames, want at most %d",
			allocs, perRun, perTransaction)
	}
}
