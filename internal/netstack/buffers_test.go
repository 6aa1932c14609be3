package netstack

import (
	"bytes"
	"testing"
	"time"

	"ddoshield/internal/netsim"
	"ddoshield/internal/sim"
)

// serveOnce makes server answer every connection's first data with a
// response of size bytes generated in place, then close — httpapp's shape.
// It reports each accepted connection and each reservation through the
// callbacks.
func serveOnce(t *testing.T, server *Host, size int, accepted func(*Conn), reserved func([]byte)) {
	t.Helper()
	if _, err := server.ListenTCP(80, 0, func(c *Conn) {
		accepted(c)
		c.OnData = func([]byte) {
			b := c.Reserve(size)[:size]
			reserved(b)
			for i := range b {
				b[i] = byte(i * 7)
			}
			c.Commit(size)
			c.Close()
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// fetchOnce dials server, sends one byte and collects the response.
func fetchOnce(client, server *Host) *bytes.Buffer {
	var got bytes.Buffer
	c := client.DialTCP(server.Addr(), 80)
	c.OnConnect = func() { c.Send([]byte{'?'}) }
	c.OnData = func(d []byte) { got.Write(d) }
	c.OnRemoteClose = c.Close
	return &got
}

// TestSendBufferReleasedOnFullAck is the regression test for the send
// buffer outliving its bytes: handleSegment used to re-slice sendBuf past
// the acknowledged data, which kept the whole backing array reachable from
// a connection that then sat in TIME_WAIT for a second (and in its
// application's closures for longer) — 45 of fleet120-serial's 50 MB live
// heap. The buffer must be back on the host's list, once, by the time the
// server reaches TIME_WAIT, and the next response must be written into it.
func TestSendBufferReleasedOnFullAck(t *testing.T) {
	const size = 64 << 10
	s, hosts := lan(t, 2, netsim.LinkConfig{})
	client, server := hosts[0], hosts[1]
	var conns []*Conn
	var reservations [][]byte
	serveOnce(t, server, size,
		func(c *Conn) { conns = append(conns, c) },
		func(b []byte) { reservations = append(reservations, b) })

	heldMax := 0
	runUntilTimeWait := func(n int) {
		t.Helper()
		for len(conns) < n || conns[n-1].State() != StateTimeWait {
			if s.Now() > 30*sim.Second {
				t.Fatalf("connection %d never reached TIME_WAIT", n)
			}
			if err := s.RunFor(time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if server.bufs != nil {
				heldMax = max(heldMax, server.bufs.held)
			}
		}
	}

	got := fetchOnce(client, server)
	runUntilTimeWait(1)
	if got.Len() != size {
		t.Fatalf("client received %d bytes, want %d", got.Len(), size)
	}
	if c := conns[0]; c.sendBuf != nil || c.sendOff != 0 {
		t.Fatalf("server connection in TIME_WAIT still holds a %d-byte send buffer", cap(c.sendBuf))
	}
	class := bufferClass(size)
	if server.bufs == nil || len(server.bufs.free[class]) != 1 || server.bufs.held != size {
		t.Fatalf("server free list after one response: %+v, want one %d-byte buffer", server.bufs, size)
	}

	got2 := fetchOnce(client, server)
	runUntilTimeWait(2)
	if !bytes.Equal(got.Bytes(), got2.Bytes()) {
		t.Fatal("second response differs from the first")
	}
	if &reservations[0][0] != &reservations[1][0] {
		t.Fatal("second response was not generated into the first one's buffer")
	}
	if len(server.bufs.free[class]) != 1 || server.bufs.held != size {
		t.Fatalf("server free list after two responses: %+v, want the same one buffer", server.bufs)
	}
	if heldMax > maxFreeBufferBytes {
		t.Fatalf("free list held %d bytes, cap is %d", heldMax, maxFreeBufferBytes)
	}
}

// TestHostBufferFreeListBoundedInBytes pins the cap's unit: capacity, summed
// over every class, not buffers per class.
func TestHostBufferFreeListBoundedInBytes(t *testing.T) {
	_, hosts := lanQuiet(1)
	h := hosts[0]
	for i := 0; i < 10; i++ {
		h.putBuffer(make([]byte, 0, 64<<10))
		h.putBuffer(make([]byte, 0, 64))
	}
	if h.bufs.held > maxFreeBufferBytes || h.bufs.held < maxFreeBufferBytes-64<<10 {
		t.Fatalf("held %d bytes after offering 640 KiB, cap %d", h.bufs.held, maxFreeBufferBytes)
	}
	held := h.bufs.held
	h.putBuffer(make([]byte, 0, 1<<20)) // larger than any class
	if h.bufs.held != held {
		t.Fatalf("a 1 MiB buffer was kept: held %d -> %d", held, h.bufs.held)
	}
	if b := h.getBuffer(40 << 10); cap(b) != 64<<10 || len(b) != 0 || h.bufs.held != held-64<<10 {
		t.Fatalf("getBuffer(40 KiB): len %d cap %d, held %d -> %d", len(b), cap(b), held, h.bufs.held)
	}
	if b := h.getBuffer(1 << 20); cap(b) != 1<<20 {
		t.Fatalf("getBuffer(1 MiB): cap %d", cap(b))
	}
}

// TestHostBufferFreeListDroppedOnReleaseIdle: the list is lazy (a host that
// never sent has none) and a cache (a halted device keeps none).
func TestHostBufferFreeListDroppedOnReleaseIdle(t *testing.T) {
	s, hosts := lan(t, 3, netsim.LinkConfig{})
	client, server, idle := hosts[0], hosts[1], hosts[2]
	serveOnce(t, server, 4<<10, func(*Conn) {}, func([]byte) {})
	fetchOnce(client, server)
	s.Drain()
	if idle.bufs != nil {
		t.Fatal("a host that only heard broadcasts has a free list")
	}
	if client.bufs == nil || server.bufs == nil || server.bufs.held == 0 {
		t.Fatalf("free lists after one exchange: client %+v, server %+v", client.bufs, server.bufs)
	}
	server.ReleaseIdle()
	if server.bufs != nil {
		t.Fatal("ReleaseIdle kept the free list")
	}
	// The list comes back with the next response.
	got := fetchOnce(client, server)
	s.Drain()
	if got.Len() != 4<<10 || server.bufs == nil {
		t.Fatalf("after ReleaseIdle: %d bytes served, free list %+v", got.Len(), server.bufs)
	}
}

// TestSendQueueGrowthAmortized: an application that keeps queueing ahead of
// the acknowledgements (a stream pushed at a peer that has gone away) must
// not pay for it quadratically. Past the largest buffer class the send
// buffer once grew to exactly what each Send needed, and every 4 KiB chunk
// reallocated and moved the whole backlog.
func TestSendQueueGrowthAmortized(t *testing.T) {
	_, hosts := lanQuiet(2)
	c := hosts[0].DialTCP(hosts[1].Addr(), 80) // never answered: data stays queued
	chunk := make([]byte, 4<<10)
	const chunks = 2048
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < chunks; i++ {
			c.Send(chunk)
		}
	})
	if got := len(c.queued()); got != 2*chunks*len(chunk) { // AllocsPerRun runs the function twice
		t.Fatalf("%d bytes queued, want %d", got, 2*chunks*len(chunk))
	}
	if allocs > 32 {
		t.Fatalf("queueing %d chunks allocated %.0f buffers, want one per doubling", chunks, allocs)
	}
}
