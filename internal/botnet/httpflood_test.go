package botnet

import (
	"strings"
	"testing"
	"time"

	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// miniHTTPServer answers every request with a tiny 200 response and
// returns the count of responses sent.
func miniHTTPServer(t *testing.T, h *netstack.Host) *uint64 {
	t.Helper()
	var answered uint64
	_, err := h.ListenTCP(80, 0, func(c *netstack.Conn) {
		var buf strings.Builder
		c.OnData = func(d []byte) {
			buf.Write(d)
			if strings.Contains(buf.String(), "\r\n\r\n") {
				c.Send([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"))
				answered++
				buf.Reset()
			}
		}
		c.OnRemoteClose = func() { c.Close() }
	})
	if err != nil {
		t.Fatal(err)
	}
	return &answered
}

func TestHTTPAttackTypeWire(t *testing.T) {
	if AttackHTTP.String() != "http" {
		t.Fatalf("String = %q", AttackHTTP.String())
	}
	at, err := ParseAttackType("HTTP")
	if err != nil || at != AttackHTTP {
		t.Fatalf("parse: %v %v", at, err)
	}
	cmd := Command{Type: AttackHTTP, Target: subnet.Host(0x0101), Port: 80, Duration: 10 * time.Second, PPS: 50}
	got, err := ParseCommand(cmd.String())
	if err != nil || got != cmd {
		t.Fatalf("round trip: %+v %v", got, err)
	}
}

func TestHTTPFloodIssuesRequests(t *testing.T) {
	r := newRig()
	bot := r.host(10)
	target := r.host(0x0100 + 1)
	answered := miniHTTPServer(t, target)
	f := NewFlood(bot, sim.NewRNG(1), Command{
		Type: AttackHTTP, Target: target.Addr(), Port: 80,
		Duration: 3 * time.Second, PPS: 50,
	}, packet.Prefix{})
	done := false
	f.OnDone = func() { done = true }
	f.Start()
	if err := r.sched.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("flood never finished")
	}
	if f.Sent() < 120 || f.Sent() > 180 {
		t.Fatalf("requests = %d, want ~150", f.Sent())
	}
	if *answered < f.Sent()/2 {
		t.Fatalf("answered %d of %d", *answered, f.Sent())
	}
}

func TestHTTPFloodDefaultsPort80(t *testing.T) {
	r := newRig()
	f := NewFlood(r.host(11), sim.NewRNG(2), Command{Type: AttackHTTP, Duration: time.Second, PPS: 1}, packet.Prefix{})
	if f.cmd.Port != 80 {
		t.Fatalf("default port = %d", f.cmd.Port)
	}
}

func TestBotExecutesHTTPCommand(t *testing.T) {
	r := newRig()
	c2Host := r.host(2)
	c2 := NewC2()
	if err := c2.Attach(c2Host); err != nil {
		t.Fatal(err)
	}
	target := r.host(0x0100 + 1)
	miniHTTPServer(t, target)
	b := NewBot("hb", c2Host.Addr(), 0, subnet, 1)
	b.Attach(r.host(20))
	if err := r.sched.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	n := c2.Broadcast(Command{
		Type: AttackHTTP, Target: target.Addr(), Port: 80,
		Duration: 2 * time.Second, PPS: 30,
	})
	if n != 1 {
		t.Fatalf("broadcast reached %d", n)
	}
	if err := r.sched.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	attacks, sent := b.Stats()
	if attacks != 1 || sent == 0 {
		t.Fatalf("bot stats: attacks=%d sent=%d", attacks, sent)
	}
	// The interval was recorded with the bot's address.
	ivs := c2.Intervals()
	if len(ivs) != 1 {
		t.Fatalf("intervals = %d", len(ivs))
	}
	if ivs[0].Cmd.Type != AttackHTTP || len(ivs[0].Bots) != 1 {
		t.Fatalf("interval = %+v", ivs[0])
	}
	if ivs[0].Bots[0] != (subnet.Host(20)) {
		t.Fatalf("bot addr = %v", ivs[0].Bots[0])
	}
}
