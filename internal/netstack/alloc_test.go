//go:build !race

// The race detector makes sync.Pool (netsim's delivery events, the frame
// buffers) drop what is put back, so allocation counts mean nothing under it.

package netstack

import (
	"testing"

	"ddoshield/internal/netsim"
)

// TestTCPDataPathAllocs pins what a bulk transfer on an established
// connection allocates: nothing. The frames — one per data segment, one per
// ACK — are built into recycled buffers, which the receiving NIC releases;
// there is no builder closure per segment, no send-buffer growth (the buffer
// comes back from the host's list), no timer method value.
func TestTCPDataPathAllocs(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{})
	client, server := hosts[0], hosts[1]
	received := 0
	if _, err := server.ListenTCP(80, 0, func(c *Conn) {
		c.OnData = func(d []byte) { received += len(d) }
	}); err != nil {
		t.Fatal(err)
	}
	c := client.DialTCP(server.Addr(), 80)
	s.Drain()
	if c.State() != StateEstablished {
		t.Fatalf("state %v", c.State())
	}
	burst := make([]byte, sendWindow)
	transfer := func() {
		c.Send(burst)
		s.Drain()
	}
	transfer() // warm the host's free list and the scheduler's pools

	frames := func() uint64 {
		_, _, ctx, _ := client.NIC().Stats()
		_, _, stx, _ := server.NIC().Stats()
		return ctx + stx
	}
	const runs = 50
	before, was := frames(), received
	allocs := testing.AllocsPerRun(runs, transfer)
	perRun := float64(frames()-before) / (runs + 1) // AllocsPerRun warms up once
	if received-was != (runs+1)*len(burst) {
		t.Fatalf("server received %d bytes, want %d", received-was, (runs+1)*len(burst))
	}
	if perRun < sendWindow/MSS+1 {
		t.Fatalf("%.1f frames per burst: no ACKs counted", perRun)
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocations per %d-segment burst of %.1f frames, want 0", allocs, sendWindow/MSS, perRun)
	}

	if n := testing.AllocsPerRun(100, c.armRetransmit); n != 0 {
		t.Fatalf("re-arming the retransmit timer allocates %.1f times", n)
	}
	c.disarmRetransmit()
}
