package ftpapp

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

func TestFullSessionTransfers(t *testing.T) {
	s, ch, sh := pair(t)
	srv := NewServer(ServerConfig{Seed: 1, MeanFileBytes: 32 << 10})
	if err := srv.Attach(sh); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(sh.Addr(), "iot", "iot", 5*time.Second, 3)
	cl.Attach(ch)
	if err := s.Run(120 * sim.Second); err != nil {
		t.Fatal(err)
	}
	sessions, completed, failed, bytesIn := cl.Stats()
	if sessions < 10 {
		t.Fatalf("sessions = %d", sessions)
	}
	if completed < sessions*7/10 {
		t.Fatalf("completed = %d of %d (failed=%d)", completed, sessions, failed)
	}
	if bytesIn == 0 {
		t.Fatal("no file bytes received")
	}
	logins, transfers, bytesOut, authFails := srv.Stats()
	if logins == 0 || transfers == 0 {
		t.Fatalf("server: logins=%d transfers=%d", logins, transfers)
	}
	if bytesOut < bytesIn {
		t.Fatalf("server sent %d < client received %d", bytesOut, bytesIn)
	}
	if authFails != 0 {
		t.Fatalf("authFails = %d", authFails)
	}
}

func TestAuthRejectsWrongPassword(t *testing.T) {
	s, ch, sh := pair(t)
	srv := NewServer(ServerConfig{Seed: 1, Users: map[string]string{"iot": "secret"}})
	if err := srv.Attach(sh); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(sh.Addr(), "iot", "wrong", 2*time.Second, 5)
	cl.Attach(ch)
	if err := s.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	_, completed, failed, _ := cl.Stats()
	if completed != 0 {
		t.Fatalf("completed = %d with wrong password", completed)
	}
	if failed == 0 {
		t.Fatal("no failures recorded")
	}
	_, _, _, authFails := srv.Stats()
	if authFails == 0 {
		t.Fatal("server recorded no auth failures")
	}
}

func TestAnonymousAcceptedWhenNoUsers(t *testing.T) {
	s, ch, sh := pair(t)
	srv := NewServer(ServerConfig{Seed: 2})
	if err := srv.Attach(sh); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(sh.Addr(), "anonymous", "x@y", 2*time.Second, 8)
	cl.Attach(ch)
	if err := s.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	_, completed, _, _ := cl.Stats()
	if completed == 0 {
		t.Fatal("anonymous session never completed")
	}
}

func TestParsePASV(t *testing.T) {
	addr, port, ok := parsePASV("227 entering passive mode (10,0,0,2,78,32)")
	if !ok {
		t.Fatal("parse failed")
	}
	if addr != packet.AddrFrom4(10, 0, 0, 2) {
		t.Fatalf("addr = %v", addr)
	}
	if port != 78<<8|32 {
		t.Fatalf("port = %d", port)
	}
	if _, _, ok := parsePASV("227 nonsense"); ok {
		t.Fatal("accepted malformed reply")
	}
	if _, _, ok := parsePASV("227 (1,2,3)"); ok {
		t.Fatal("accepted short tuple")
	}
}

func TestUnknownCommandGets502(t *testing.T) {
	s, ch, sh := pair(t)
	srv := NewServer(ServerConfig{Seed: 3})
	if err := srv.Attach(sh); err != nil {
		t.Fatal(err)
	}
	conn := ch.DialTCP(sh.Addr(), 21)
	var lines []string
	buf := ""
	conn.OnData = func(d []byte) {
		buf += string(d)
		for {
			i := -1
			for j := 0; j+1 < len(buf); j++ {
				if buf[j] == '\r' && buf[j+1] == '\n' {
					i = j
					break
				}
			}
			if i < 0 {
				return
			}
			lines = append(lines, buf[:i])
			buf = buf[i+2:]
		}
	}
	conn.OnConnect = func() { conn.Send([]byte("NOOP\r\n")) }
	if err := s.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range lines {
		if len(l) >= 3 && l[:3] == "502" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no 502 reply in %v", lines)
	}
}
