//go:build !race

// The race detector makes sync.Pool (netsim's delivery events, the frame
// buffers) drop what is put back, so allocation counts mean nothing under it.

package netstack

import (
	"testing"

	"ddoshield/internal/netsim"
	"ddoshield/internal/packet"
)

// releasePoisons: outside the race build a released frame keeps its bytes
// (see race_test.go).
const releasePoisons = false

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

// TestParkedSegmentAllocs pins what a TCP segment that waits for ARP
// allocates: nothing. It is built once, into a recycled frame buffer, and
// parked as that frame; there is no builder closure and no private copy of
// its payload, whose send buffer may be recycled before ARP answers. The
// parked frames are taken off the entry between runs, so the queue's
// backing array is reused too.
func TestParkedSegmentAllocs(t *testing.T) {
	_, hosts := lan(t, 1, netsim.LinkConfig{})
	h := hosts[0]
	absent := packet.AddrFrom4(10, 0, 0, 200)
	c := &Conn{host: h, key: connKey{remote: absent, remotePort: 80, localPort: 40000}}
	payload := make([]byte, MSS)
	c.sendSegment(1, 1, packet.FlagACK|packet.FlagPSH, payload) // starts ARP
	e := h.arp[absent]
	park := func() {
		c.sendSegment(1, 1, packet.FlagACK|packet.FlagPSH, payload)
		for _, p := range e.pending {
			packet.ReleaseFrame(p.frame)
		}
		e.pending = e.pending[:0]
	}
	if n := testing.AllocsPerRun(100, park); n != 0 {
		t.Fatalf("parking a %d-byte segment allocates %.1f times, want 0", MSS, n)
	}
	if !e.waiting || e.tries != 1 {
		t.Fatalf("entry waiting=%v after %d requests: parking restarted ARP", e.waiting, e.tries)
	}
}
