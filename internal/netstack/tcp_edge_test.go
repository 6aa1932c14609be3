package netstack

import (
	"bytes"
	"testing"
	"testing/quick"

	"ddoshield/internal/netsim"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

func TestSimultaneousClose(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{})
	client, server := hosts[0], hosts[1]
	var serverConn *Conn
	serverClosed, clientClosed := false, false
	if _, err := server.ListenTCP(80, 0, func(c *Conn) {
		serverConn = c
		c.OnClose = func(err error) { serverClosed = true }
	}); err != nil {
		t.Fatal(err)
	}
	c := client.DialTCP(server.Addr(), 80)
	c.OnClose = func(err error) { clientClosed = true }
	c.OnConnect = func() {
		// Wait for the server's accept (the final ACK is still in flight
		// when the client connects), then close both ends in the same
		// instant: the FINs cross on the wire.
		client.Scheduler().After(10*sim.Millisecond.Duration(), func() {
			c.Close()
			serverConn.Close()
		})
	}
	if err := s.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !clientClosed || !serverClosed {
		t.Fatalf("simultaneous close did not complete: client=%v server=%v",
			clientClosed, serverClosed)
	}
}

func TestServerInitiatedClose(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{})
	client, server := hosts[0], hosts[1]
	if _, err := server.ListenTCP(80, 0, func(c *Conn) {
		c.Send([]byte("bye"))
		c.Close()
	}); err != nil {
		t.Fatal(err)
	}
	c := client.DialTCP(server.Addr(), 80)
	var got []byte
	sawRemoteClose := false
	c.OnData = func(d []byte) { got = append(got, d...) }
	c.OnRemoteClose = func() {
		sawRemoteClose = true
		c.Close()
	}
	if err := s.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if string(got) != "bye" || !sawRemoteClose {
		t.Fatalf("got=%q remoteClose=%v", got, sawRemoteClose)
	}
	if c.State() != StateClosed && c.State() != StateTimeWait {
		t.Fatalf("client state = %v", c.State())
	}
}

func TestListenerCloseStopsNewConnections(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{})
	client, server := hosts[0], hosts[1]
	accepted := 0
	l, err := server.ListenTCP(80, 0, func(c *Conn) { accepted++ })
	if err != nil {
		t.Fatal(err)
	}
	c1 := client.DialTCP(server.Addr(), 80)
	_ = c1
	if err := s.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if accepted != 1 {
		t.Fatalf("accepted = %d", accepted)
	}
	l.Close()
	c2 := client.DialTCP(server.Addr(), 80)
	var refused error
	c2.OnClose = func(err error) { refused = err }
	if err := s.RunFor((30 * sim.Second).Duration()); err != nil {
		t.Fatal(err)
	}
	if accepted != 1 {
		t.Fatal("closed listener accepted a connection")
	}
	if refused != ErrRefused {
		t.Fatalf("dial to closed listener: %v", refused)
	}
	// The port can be rebound after close.
	if _, err := server.ListenTCP(80, 0, nil); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestSendBeforeConnectIsBuffered(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{})
	client, server := hosts[0], hosts[1]
	var got []byte
	if _, err := server.ListenTCP(80, 0, func(c *Conn) {
		c.OnData = func(d []byte) { got = append(got, d...) }
	}); err != nil {
		t.Fatal(err)
	}
	c := client.DialTCP(server.Addr(), 80)
	// Queue data immediately, before the handshake completes.
	c.Send([]byte("early"))
	if err := s.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if string(got) != "early" {
		t.Fatalf("got %q", got)
	}
}

func TestZeroLengthSendNoop(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{})
	client, server := hosts[0], hosts[1]
	rcvd := 0
	if _, err := server.ListenTCP(80, 0, func(c *Conn) {
		c.OnData = func(d []byte) { rcvd += len(d) }
	}); err != nil {
		t.Fatal(err)
	}
	c := client.DialTCP(server.Addr(), 80)
	c.OnConnect = func() { c.Send(nil) }
	if err := s.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if rcvd != 0 {
		t.Fatalf("zero-length send transmitted %d bytes", rcvd)
	}
}

func TestAbortIdempotent(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{})
	client, server := hosts[0], hosts[1]
	if _, err := server.ListenTCP(80, 0, nil); err != nil {
		t.Fatal(err)
	}
	c := client.DialTCP(server.Addr(), 80)
	closes := 0
	c.OnClose = func(err error) { closes++ }
	c.OnConnect = func() {
		c.Abort()
		c.Abort()
		c.Close() // after abort: all no-ops
	}
	if err := s.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if closes != 1 {
		t.Fatalf("OnClose fired %d times", closes)
	}
}

func TestInterleavedBidirectionalTransfer(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{})
	client, server := hosts[0], hosts[1]
	const chunk = 10_000
	var atServer, atClient []byte
	if _, err := server.ListenTCP(80, 0, func(c *Conn) {
		c.OnData = func(d []byte) {
			atServer = append(atServer, d...)
			c.Send(d) // echo
		}
	}); err != nil {
		t.Fatal(err)
	}
	c := client.DialTCP(server.Addr(), 80)
	payload := bytes.Repeat([]byte("x"), chunk)
	c.OnData = func(d []byte) { atClient = append(atClient, d...) }
	c.OnConnect = func() { c.Send(payload) }
	if err := s.Run(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(atServer) != chunk || len(atClient) != chunk {
		t.Fatalf("echo lengths: server=%d client=%d", len(atServer), len(atClient))
	}
}

// Property: any payload (1..8 KiB of arbitrary bytes) survives a TCP
// transfer over a clean link bit-for-bit.
func TestTCPTransferProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 8192 {
			data = data[:8192]
		}
		s, hosts := lanQuiet(2)
		client, server := hosts[0], hosts[1]
		var got []byte
		if _, err := server.ListenTCP(80, 0, func(c *Conn) {
			c.OnData = func(d []byte) { got = append(got, d...) }
		}); err != nil {
			return false
		}
		c := client.DialTCP(server.Addr(), 80)
		c.OnConnect = func() { c.Send(data) }
		if err := s.Run(60 * sim.Second); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// lanQuiet is lan without a *testing.T (for property functions).
func lanQuiet(n int) (*sim.Scheduler, []*Host) {
	s := sim.NewScheduler()
	net := netsim.New(s)
	sw := net.NewSwitch("sw0")
	subnet := packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 0), Bits: 24}
	hosts := make([]*Host, n)
	for i := 0; i < n; i++ {
		nic := net.NewNode("h").AddNIC()
		net.Connect(nic, sw.NewPort(), netsim.LinkConfig{})
		hosts[i] = NewHost(nic, HostConfig{
			Addr:   subnet.Host(uint32(i + 1)),
			Subnet: subnet,
			Seed:   int64(100 + i),
		})
	}
	return s, hosts
}
