package workload

import (
	"testing"
	"time"

	"ddoshield/internal/netsim"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

func TestPoissonProcessRate(t *testing.T) {
	s := sim.NewScheduler()
	rng := sim.NewRNG(1)
	n := 0
	p := NewPoisson(s, rng, time.Second, func() { n++ })
	p.Start()
	if err := s.Run(1000 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if n < 900 || n > 1100 {
		t.Fatalf("arrivals over 1000s at mean 1s = %d", n)
	}
}

func TestProcessStop(t *testing.T) {
	s := sim.NewScheduler()
	rng := sim.NewRNG(2)
	n := 0
	var p *Process
	p = NewPoisson(s, rng, 1500*time.Millisecond, func() {
		n++
		if n == 5 {
			p.Stop()
		}
	})
	p.Start()
	p.Start() // idempotent
	if err := s.Run(100 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("arrivals after Stop = %d, want 5", n)
	}
}

func TestLineReaderSplitsLines(t *testing.T) {
	var lines []string
	lr := &LineReader{OnLine: func(l string) { lines = append(lines, l) }}
	lr.Feed([]byte("USER admin\r\nPA"))
	lr.Feed([]byte("SS secret\r\n"))
	lr.Feed([]byte("plain-lf\n"))
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[0] != "USER admin" || lines[1] != "PASS secret" || lines[2] != "plain-lf" {
		t.Fatalf("lines = %v", lines)
	}
}

func TestLineReaderMaxLine(t *testing.T) {
	n := 0
	lr := &LineReader{MaxLine: 10, OnLine: func(string) { n++ }}
	lr.Feed(make([]byte, 100)) // no newline, over cap: discarded
	lr.Feed([]byte("ok\n"))
	if n != 1 {
		t.Fatalf("lines after poisoned buffer = %d, want 1", n)
	}
}

func TestLineReaderMultipleLinesOneFeed(t *testing.T) {
	var lines []string
	lr := &LineReader{OnLine: func(l string) { lines = append(lines, l) }}
	lr.Feed([]byte("a\r\nb\r\nc\r\n"))
	if len(lines) != 3 || lines[2] != "c" {
		t.Fatalf("lines = %v", lines)
	}
}

func TestChunkerStreamsAtInterval(t *testing.T) {
	s, conn, received := chunkerRig(t)
	ck := NewChunker(s, conn, 10000, 1000, 100*time.Millisecond)
	done := false
	ck.OnDone = func() { done = true }
	ck.Start()
	ck.Start() // idempotent
	if err := s.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("chunker never finished")
	}
	if ck.Remaining() != 0 {
		t.Fatalf("Remaining = %d", ck.Remaining())
	}
	if *received != 10000 {
		t.Fatalf("received %d of 10000", *received)
	}
}

func TestChunkerStop(t *testing.T) {
	s, conn, received := chunkerRig(t)
	ck := NewChunker(s, conn, 100000, 1000, 100*time.Millisecond)
	ck.Start()
	if err := s.Run(1 * sim.Second); err != nil {
		t.Fatal(err)
	}
	ck.Stop()
	got := *received
	if err := s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if *received != got {
		t.Fatal("chunker kept streaming after Stop")
	}
	if ck.Remaining() == 0 {
		t.Fatal("Remaining should be nonzero after early stop")
	}
}

func TestChunkerStopsWhenConnDies(t *testing.T) {
	s, conn, _ := chunkerRig(t)
	ck := NewChunker(s, conn, 100000, 1000, 100*time.Millisecond)
	done := false
	ck.OnDone = func() { done = true }
	ck.Start()
	if err := s.Run(1 * sim.Second); err != nil {
		t.Fatal(err)
	}
	conn.Abort()
	if err := s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("chunker did not finish after the connection died")
	}
}

// chunkerRig builds an established TCP connection and returns the sending
// side plus a counter of bytes received at the peer.
func chunkerRig(t *testing.T) (*sim.Scheduler, *netstack.Conn, *int) {
	t.Helper()
	s := sim.NewScheduler()
	net := netsim.New(s)
	sw := net.NewSwitch("sw")
	subnet := packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 0), Bits: 24}
	mk := func(n uint32) *netstack.Host {
		nic := net.NewNode("h").AddNIC()
		net.Connect(nic, sw.NewPort(), netsim.LinkConfig{})
		return netstack.NewHost(nic, netstack.HostConfig{Addr: subnet.Host(n), Subnet: subnet, Seed: int64(n)})
	}
	a, b := mk(1), mk(2)
	received := new(int)
	if _, err := b.ListenTCP(80, 0, func(c *netstack.Conn) {
		c.OnData = func(d []byte) { *received += len(d) }
	}); err != nil {
		t.Fatal(err)
	}
	conn := a.DialTCP(b.Addr(), 80)
	if err := s.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if conn.State() != netstack.StateEstablished {
		t.Fatal("connection not established")
	}
	return s, conn, received
}

func TestAttachLines(t *testing.T) {
	s, conn, _ := chunkerRig(t)
	_ = s
	var lines []string
	lr := AttachLines(conn, func(l string) { lines = append(lines, l) })
	lr.Feed([]byte("via reader\r\n"))
	conn.OnData([]byte("via conn\r\n"))
	if len(lines) != 2 || lines[1] != "via conn" {
		t.Fatalf("lines = %v", lines)
	}
}
