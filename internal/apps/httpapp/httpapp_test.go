package httpapp

import (
	"bytes"
	"strconv"
	"testing"
	"time"

	"ddoshield/internal/netsim"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// pair builds a client host and a server host on one switch.
func pair(t *testing.T) (*sim.Scheduler, *netstack.Host, *netstack.Host) {
	t.Helper()
	s := sim.NewScheduler()
	net := netsim.New(s)
	sw := net.NewSwitch("sw")
	subnet := packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 0), Bits: 24}
	mk := func(i int) *netstack.Host {
		nic := net.NewNode("h").AddNIC()
		net.Connect(nic, sw.NewPort(), netsim.LinkConfig{})
		return netstack.NewHost(nic, netstack.HostConfig{
			Addr: subnet.Host(uint32(i)), Subnet: subnet, Seed: int64(i),
		})
	}
	return s, mk(1), mk(2)
}

func TestClientFetchesObjects(t *testing.T) {
	s, ch, sh := pair(t)
	srv := NewServer(ServerConfig{Seed: 1})
	if err := srv.Attach(sh); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(sh.Addr(), 0, 2*time.Second, 7)
	cl.Attach(ch)
	if err := s.Run(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	fetches, completed, failed, bytesIn := cl.Stats()
	if fetches < 15 {
		t.Fatalf("fetches = %d, want ~30", fetches)
	}
	if completed < fetches*8/10 {
		t.Fatalf("completed = %d of %d", completed, fetches)
	}
	if failed > fetches/10 {
		t.Fatalf("failed = %d of %d", failed, fetches)
	}
	if bytesIn == 0 {
		t.Fatal("no body bytes received")
	}
	requests, bytesOut := srv.Stats()
	if requests == 0 || bytesOut == 0 {
		t.Fatalf("server stats: %d req / %d bytes", requests, bytesOut)
	}
	cl.Detach()
}

func TestServerRejectsNonGET(t *testing.T) {
	s, ch, sh := pair(t)
	srv := NewServer(ServerConfig{Seed: 1})
	if err := srv.Attach(sh); err != nil {
		t.Fatal(err)
	}
	conn := ch.DialTCP(sh.Addr(), 80)
	var resp []byte
	conn.OnConnect = func() { conn.Send([]byte("POST / HTTP/1.1\r\n\r\n")) }
	conn.OnData = func(d []byte) { resp = append(resp, d...) }
	conn.OnRemoteClose = func() { conn.Close() }
	if err := s.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(resp) == 0 || string(resp[:12]) != "HTTP/1.1 400" {
		t.Fatalf("response = %q", resp)
	}
	requests, _ := srv.Stats()
	if requests != 0 {
		t.Fatal("bad request counted as served")
	}
}

func TestParseContentLength(t *testing.T) {
	h := []byte("HTTP/1.1 200 OK\r\nServer: x\r\nContent-Length: 1234")
	if got := parseContentLength(h); got != 1234 {
		t.Fatalf("parseContentLength = %d", got)
	}
	if got := parseContentLength([]byte("HTTP/1.1 200 OK")); got != 0 {
		t.Fatalf("missing header -> %d", got)
	}
}

func TestResponseSizesHeavyTailed(t *testing.T) {
	s, ch, sh := pair(t)
	srv := NewServer(ServerConfig{MeanObjectBytes: 8 << 10, Seed: 5})
	if err := srv.Attach(sh); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(sh.Addr(), 0, 500*time.Millisecond, 9)
	cl.Attach(ch)
	if err := s.Run(120 * sim.Second); err != nil {
		t.Fatal(err)
	}
	_, completed, _, bytesIn := cl.Stats()
	if completed < 100 {
		t.Fatalf("completed = %d", completed)
	}
	mean := float64(bytesIn) / float64(completed)
	if mean < 1000 || mean > 100_000 {
		t.Fatalf("mean object size = %.0f bytes, implausible", mean)
	}
}

// TestRequestSplitAcrossSegments: a request is normally parsed where it lies
// in its one segment; one that arrives in pieces is held until its blank
// line and answered the same.
func TestRequestSplitAcrossSegments(t *testing.T) {
	s, ch, sh := pair(t)
	srv := NewServer(ServerConfig{Seed: 1})
	if err := srv.Attach(sh); err != nil {
		t.Fatal(err)
	}
	conn := ch.DialTCP(sh.Addr(), DefaultPort)
	var resp []byte
	conn.OnConnect = func() {
		conn.Send([]byte("GET /obj/1 HT"))
		ch.Scheduler().After(50*time.Millisecond, func() { conn.Send([]byte("TP/1.1\r\nHost: tserver\r\n")) })
		ch.Scheduler().After(100*time.Millisecond, func() { conn.Send([]byte("\r\n")) })
	}
	conn.OnData = func(d []byte) { resp = append(resp, d...) }
	conn.OnRemoteClose = conn.Close
	if err := s.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if requests, bytesOut := srv.Stats(); requests != 1 || !bytes.HasPrefix(resp, []byte(okHeaderPrefix)) {
		t.Fatalf("%d requests served, response %.40q", requests, resp)
	} else if want := len(okHeaderPrefix) + len(strconv.Itoa(int(bytesOut))) + 4 + int(bytesOut); len(resp) != want {
		t.Fatalf("response is %d bytes, want %d", len(resp), want)
	}
}
