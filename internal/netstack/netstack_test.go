package netstack

import (
	"bytes"
	"testing"

	"ddoshield/internal/netsim"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/telemetry/trace"
)

// lan builds n hosts joined by a switch on 10.0.0.0/24 (.1, .2, ...).
func lan(t *testing.T, n int, cfg netsim.LinkConfig) (*sim.Scheduler, []*Host) {
	t.Helper()
	s := sim.NewScheduler()
	net := netsim.New(s)
	net.SetSeed(3) // roots the loss streams of a lossy cfg
	sw := net.NewSwitch("sw0")
	subnet := packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 0), Bits: 24}
	hosts := make([]*Host, n)
	for i := 0; i < n; i++ {
		nic := net.NewNode("h").AddNIC()
		net.Connect(nic, sw.NewPort(), cfg)
		hosts[i] = NewHost(nic, HostConfig{
			Addr:   subnet.Host(uint32(i + 1)),
			Subnet: subnet,
			Seed:   int64(100 + i),
		})
	}
	return s, hosts
}

func TestARPResolutionAndUDPDelivery(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{})
	a, b := hosts[0], hosts[1]
	var got []byte
	var from packet.Addr
	if _, err := b.ListenUDP(9000, func(src packet.Addr, srcPort uint16, data []byte) {
		from, got = src, bytes.Clone(data) // data is valid only during the call
	}); err != nil {
		t.Fatal(err)
	}
	sock, err := a.ListenUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sock.SendTo(b.Addr(), 9000, []byte("ping"))
	s.Drain()
	if !bytes.Equal(got, []byte("ping")) {
		t.Fatalf("got %q", got)
	}
	if from != a.Addr() {
		t.Fatalf("from = %v", from)
	}
}

func TestUDPBidirectional(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{})
	a, b := hosts[0], hosts[1]
	var reply []byte
	bsock, err := b.ListenUDP(7, nil) // echo
	if err != nil {
		t.Fatal(err)
	}
	bsock2 := bsock
	bsock.handler = func(src packet.Addr, srcPort uint16, data []byte) {
		bsock2.SendTo(src, srcPort, data)
	}
	asock, err := a.ListenUDP(0, func(src packet.Addr, srcPort uint16, data []byte) {
		reply = bytes.Clone(data)
	})
	if err != nil {
		t.Fatal(err)
	}
	asock.SendTo(b.Addr(), 7, []byte("echo me"))
	s.Drain()
	if !bytes.Equal(reply, []byte("echo me")) {
		t.Fatalf("reply = %q", reply)
	}
}

func TestUDPPortConflict(t *testing.T) {
	_, hosts := lan(t, 1, netsim.LinkConfig{})
	if _, err := hosts[0].ListenUDP(53, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := hosts[0].ListenUDP(53, nil); err == nil {
		t.Fatal("double bind accepted")
	}
}

func TestTCPHandshakeAndData(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{})
	client, server := hosts[0], hosts[1]
	var rcvd []byte
	var serverConn *Conn
	if _, err := server.ListenTCP(80, 0, func(c *Conn) {
		serverConn = c
		c.OnData = func(d []byte) { rcvd = append(rcvd, d...) }
	}); err != nil {
		t.Fatal(err)
	}
	c := client.DialTCP(server.Addr(), 80)
	connected := false
	c.OnConnect = func() {
		connected = true
		c.Send([]byte("GET / HTTP/1.1\r\n\r\n"))
	}
	s.Drain()
	if !connected {
		t.Fatal("client never connected")
	}
	if c.State() != StateEstablished {
		t.Fatalf("client state = %v", c.State())
	}
	if serverConn == nil || serverConn.State() != StateEstablished {
		t.Fatal("server conn not established")
	}
	if string(rcvd) != "GET / HTTP/1.1\r\n\r\n" {
		t.Fatalf("server rcvd %q", rcvd)
	}
}

func TestTCPLargeTransferSegmentsAndWindow(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{RateBps: 10_000_000})
	client, server := hosts[0], hosts[1]
	const total = 500_000 // forces many windows' worth of segments
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i)
	}
	var rcvd []byte
	if _, err := server.ListenTCP(80, 0, func(c *Conn) {
		c.OnData = func(d []byte) { rcvd = append(rcvd, d...) }
	}); err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder(0)
	client.NIC().Node().Network().SetTelemetry(nil, rec)
	c := client.DialTCP(server.Addr(), 80)
	c.OnConnect = func() { c.Send(payload) }
	s.Drain()
	if len(rcvd) != total {
		t.Fatalf("received %d bytes, want %d", len(rcvd), total)
	}
	if !bytes.Equal(rcvd, payload) {
		t.Fatal("payload corrupted in transfer")
	}
	if retrans := retransmits(rec); retrans != 0 {
		t.Fatalf("unexpected retransmits on loss-free link: %d", retrans)
	}
}

func TestTCPRetransmissionRecoversFromLoss(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{LossProb: 0.05})
	client, server := hosts[0], hosts[1]
	const total = 100_000
	payload := make([]byte, total)
	var rcvd []byte
	if _, err := server.ListenTCP(80, 0, func(c *Conn) {
		c.OnData = func(d []byte) { rcvd = append(rcvd, d...) }
	}); err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder(0)
	client.NIC().Node().Network().SetTelemetry(nil, rec)
	c := client.DialTCP(server.Addr(), 80)
	c.OnConnect = func() { c.Send(payload) }
	if err := s.Run(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(rcvd) != total {
		t.Fatalf("received %d/%d bytes over lossy link", len(rcvd), total)
	}
	if retransmits(rec) == 0 {
		t.Fatal("expected retransmissions over 5% lossy link")
	}
}

func TestTCPGracefulCloseBothSides(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{})
	client, server := hosts[0], hosts[1]
	var serverConn *Conn
	var serverClosed, clientClosed error
	serverSawClose := false
	if _, err := server.ListenTCP(80, 0, func(c *Conn) {
		serverConn = c
		c.OnRemoteClose = func() {
			serverSawClose = true
			c.Close() // close our side in response
		}
		c.OnClose = func(err error) { serverClosed = err }
	}); err != nil {
		t.Fatal(err)
	}
	c := client.DialTCP(server.Addr(), 80)
	closed := false
	c.OnClose = func(err error) { closed = true; clientClosed = err }
	c.OnConnect = func() {
		c.Send([]byte("bye"))
		c.Close()
	}
	if err := s.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !serverSawClose {
		t.Fatal("server never saw remote close")
	}
	if !closed {
		t.Fatal("client OnClose never fired")
	}
	if clientClosed != nil || serverClosed != nil {
		t.Fatalf("close errors: client=%v server=%v", clientClosed, serverClosed)
	}
	if serverConn.State() != StateClosed {
		t.Fatalf("server conn state = %v", serverConn.State())
	}
	// Client passes through TIME_WAIT and is eventually reaped.
	if got := c.State(); got != StateClosed && got != StateTimeWait {
		t.Fatalf("client state = %v", got)
	}
}

func TestTCPConnectionRefused(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{})
	client, server := hosts[0], hosts[1]
	c := client.DialTCP(server.Addr(), 81) // nothing listens on 81
	var gotErr error
	c.OnClose = func(err error) { gotErr = err }
	s.Drain()
	if gotErr != ErrRefused {
		t.Fatalf("OnClose err = %v, want ErrRefused", gotErr)
	}
}

func TestTCPDialUnreachableTimesOut(t *testing.T) {
	s, hosts := lan(t, 1, netsim.LinkConfig{})
	c := hosts[0].DialTCP(packet.AddrFrom4(10, 0, 0, 99), 80) // no such host
	var gotErr error
	c.OnClose = func(err error) { gotErr = err }
	if err := s.Run(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if gotErr != ErrRefused && gotErr != ErrTimeout {
		t.Fatalf("OnClose err = %v, want refused/timeout", gotErr)
	}
}

func TestTCPAbortSendsRST(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{})
	client, server := hosts[0], hosts[1]
	var serverErr error
	if _, err := server.ListenTCP(80, 0, func(c *Conn) {
		c.OnClose = func(err error) { serverErr = err }
	}); err != nil {
		t.Fatal(err)
	}
	c := client.DialTCP(server.Addr(), 80)
	c.OnConnect = func() { c.Abort() }
	s.Drain()
	if serverErr != ErrReset {
		t.Fatalf("server OnClose err = %v, want ErrReset", serverErr)
	}
}

func TestListenerBacklogDropsSYNFlood(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{})
	flooder, server := hosts[0], hosts[1]
	l, err := server.ListenTCP(80, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Forge 50 SYNs from distinct spoofed on-subnet sources so no RST comes
	// back (no host answers the SYN-ACK's ARP).
	for i := 0; i < 50; i++ {
		src := packet.AddrFrom4(10, 0, 0, byte(100+i))
		raw := packet.BuildTCP(flooder.MAC(), packet.MAC{},
			packet.IPv4{TTL: 64, ID: uint16(i), Src: src, Dst: server.Addr()},
			packet.TCP{SrcPort: uint16(40000 + i), DstPort: 80, Seq: uint32(i), Flags: packet.FlagSYN, Window: 1024},
			nil)
		flooder.SendFrame(server.Addr(), raw, trace.Context{})
	}
	s.RunFor(sim.Second.Duration())
	if got := len(l.halfDM); got != 8 {
		t.Fatalf("half-open = %d, want backlog cap 8", got)
	}
	_, synDropped, _ := l.Stats()
	if synDropped != 42 {
		t.Fatalf("synDropped = %d, want 42", synDropped)
	}
	// Half-open entries expire and free the backlog.
	if err := s.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(l.halfDM); got != 0 {
		t.Fatalf("half-open after expiry = %d, want 0", got)
	}
	_, _, halfExpired := l.Stats()
	if halfExpired == 0 {
		t.Fatal("no half-open expiry recorded")
	}
}

func TestBacklogPressureBlocksLegitimateClients(t *testing.T) {
	// While the backlog is saturated by spoofed SYNs, a legitimate dial is
	// dropped; after expiry, dials succeed again. This is the degradation
	// mechanism behind the paper's DDoS scenarios.
	s, hosts := lan(t, 3, netsim.LinkConfig{})
	flooder, server, client := hosts[0], hosts[1], hosts[2]
	l, err := server.ListenTCP(80, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		src := packet.AddrFrom4(10, 0, 0, byte(200+i))
		flooder.SendFrame(server.Addr(), packet.BuildTCP(flooder.MAC(), packet.MAC{},
			packet.IPv4{TTL: 64, Src: src, Dst: server.Addr()},
			packet.TCP{SrcPort: 1000, DstPort: 80, Seq: 1, Flags: packet.FlagSYN, Window: 1024}, nil), trace.Context{})
	}
	s.RunFor((100 * sim.Millisecond).Duration())
	if len(l.halfDM) != 4 {
		t.Fatalf("backlog not saturated: %d", len(l.halfDM))
	}
	c := client.DialTCP(server.Addr(), 80)
	connected := false
	c.OnConnect = func() { connected = true }
	// The client's SYN retransmits will eventually land after the backlog
	// clears (~5 s), so the connection completes late but not immediately.
	s.RunFor(sim.Second.Duration())
	if connected {
		t.Fatal("client connected while backlog saturated")
	}
	if err := s.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !connected {
		t.Fatal("client never connected after backlog cleared")
	}
}

func TestRSTSentForClosedPort(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{})
	prober, target := hosts[0], hosts[1]
	// Observe frames arriving back at the prober.
	var sawRST bool
	probeNIC := prober.NIC()
	orig := probeNIC
	_ = orig
	// Wrap: tap the link by re-setting handler through a shim is intrusive;
	// instead dial and inspect the error path (RST -> ErrRefused), plus
	// verify a listener-less host resets forged probes via conn teardown.
	c := prober.DialTCP(target.Addr(), 23)
	var gotErr error
	c.OnClose = func(err error) { gotErr = err; sawRST = true }
	s.Drain()
	if !sawRST || gotErr != ErrRefused {
		t.Fatalf("probe to closed port: err=%v", gotErr)
	}
}

func TestEphemeralPortsDistinct(t *testing.T) {
	_, hosts := lan(t, 2, netsim.LinkConfig{})
	a := hosts[0]
	seen := map[uint16]bool{}
	for i := 0; i < 100; i++ {
		c := a.DialTCP(hosts[1].Addr(), 80)
		if seen[c.key.localPort] {
			t.Fatalf("ephemeral port %d reused", c.key.localPort)
		}
		seen[c.key.localPort] = true
	}
}

func TestSendAfterCloseDiscarded(t *testing.T) {
	s, hosts := lan(t, 2, netsim.LinkConfig{})
	client, server := hosts[0], hosts[1]
	var rcvd int
	if _, err := server.ListenTCP(80, 0, func(c *Conn) {
		c.OnData = func(d []byte) { rcvd += len(d) }
	}); err != nil {
		t.Fatal(err)
	}
	c := client.DialTCP(server.Addr(), 80)
	c.OnConnect = func() {
		c.Send([]byte("ok"))
		c.Close()
		c.Send([]byte("dropped"))
	}
	if err := s.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if rcvd != 2 {
		t.Fatalf("server received %d bytes, want 2", rcvd)
	}
}

func TestOffSubnetWithoutGatewayUnroutable(t *testing.T) {
	s, hosts := lan(t, 1, netsim.LinkConfig{})
	sock, err := hosts[0].ListenUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sock.SendTo(packet.AddrFrom4(192, 168, 9, 9), 53, []byte("x")) // must not panic
	s.Drain()
}

// TestResolveMACFailure: a caller waiting on an absent neighbour hears
// once, false, when ARP gives up after its third unanswered request.
func TestResolveMACFailure(t *testing.T) {
	s, hosts := lan(t, 1, netsim.LinkConfig{})
	var reports []sim.Time
	hosts[0].ResolveMAC(packet.AddrFrom4(10, 0, 0, 200), func(mac packet.MAC, ok bool) {
		if ok || mac != (packet.MAC{}) {
			t.Errorf("resolved an absent host to %v", mac)
		}
		reports = append(reports, s.Now())
	})
	if err := s.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(arpMaxTries * arpRetryInterval); len(reports) != 1 || reports[0] != want {
		t.Fatalf("failure reported at %v, want once at %v", reports, want)
	}
}

func TestConnStateString(t *testing.T) {
	if StateEstablished.String() != "ESTABLISHED" {
		t.Fatal("state naming broken")
	}
	if ConnState(99).String() == "" {
		t.Fatal("unknown state renders empty")
	}
}

// retransmits counts the "retransmit" events in rec.
func retransmits(rec *telemetry.Recorder) int {
	n := 0
	for _, e := range rec.Events() {
		if e.Name == "retransmit" {
			n++
		}
	}
	return n
}
