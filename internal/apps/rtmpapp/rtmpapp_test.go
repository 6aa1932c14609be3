package rtmpapp

import (
	"testing"
	"time"

	"ddoshield/internal/netsim"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

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

func TestStreamingDeliversAtBitrate(t *testing.T) {
	s, ch, sh := pair(t)
	srv := NewServer(ServerConfig{
		BitrateBps:    1_000_000,
		MeanStreamDur: 10 * time.Second,
		Seed:          1,
	})
	if err := srv.Attach(sh); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(sh.Addr(), 3*time.Second, 2)
	cl.Attach(ch)
	if err := s.Run(120 * sim.Second); err != nil {
		t.Fatal(err)
	}
	plays, finished, bytesIn := cl.Stats()
	if plays < 3 {
		t.Fatalf("plays = %d", plays)
	}
	if finished == 0 {
		t.Fatal("no stream finished")
	}
	streams, bytesOut := srv.Stats()
	if streams == 0 {
		t.Fatal("server served no streams")
	}
	if bytesIn == 0 || bytesOut == 0 {
		t.Fatalf("bytesIn=%d bytesOut=%d", bytesIn, bytesOut)
	}
	// At 1 Mb/s and ~10 s mean duration, each finished stream is ~1.25 MB.
	perStream := float64(bytesIn) / float64(finished)
	if perStream < 100_000 {
		t.Fatalf("per-stream bytes = %.0f, too small for the bitrate", perStream)
	}
	// Stop the viewer and let any stream in progress play out.
	cl.Detach()
	if err := s.RunFor((600 * time.Second)); err != nil {
		t.Fatal(err)
	}
	streams, _ = srv.Stats()
	if _, finished, _ = cl.Stats(); finished != streams {
		t.Fatalf("%d of %d streams finished after drain", finished, streams)
	}
}

func TestUnknownCommandGetsError(t *testing.T) {
	s, ch, sh := pair(t)
	srv := NewServer(ServerConfig{Seed: 1})
	if err := srv.Attach(sh); err != nil {
		t.Fatal(err)
	}
	conn := ch.DialTCP(sh.Addr(), 1935)
	var resp []byte
	conn.OnConnect = func() { conn.Send([]byte("STOP\r\n")) }
	conn.OnData = func(d []byte) { resp = append(resp, d...) }
	if err := s.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(resp) < 5 || string(resp[:5]) != "ERROR" {
		t.Fatalf("response = %q", resp)
	}
}

func TestOneStreamPerViewer(t *testing.T) {
	s, ch, sh := pair(t)
	srv := NewServer(ServerConfig{
		BitrateBps:    500_000,
		MeanStreamDur: 60 * time.Second, // long streams: client stays busy
		Seed:          4,
	})
	if err := srv.Attach(sh); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(sh.Addr(), time.Second, 5) // eager viewer
	cl.Attach(ch)
	if err := s.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	streams, _ := srv.Stats()
	if _, finished, _ := cl.Stats(); streams > finished+1 {
		t.Fatalf("%d streams started, %d finished: viewer opened concurrent streams", streams, finished)
	}
}
