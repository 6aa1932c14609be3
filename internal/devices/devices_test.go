package devices

import (
	"strings"
	"testing"
	"time"

	"ddoshield/internal/apps/httpapp"
	"ddoshield/internal/botnet"
	"ddoshield/internal/netsim"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

var subnet = packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 0), Bits: 16}

type rig struct {
	sched *sim.Scheduler
	net   *netsim.Network
	sw    *netsim.Switch
}

func newRig() *rig {
	s := sim.NewScheduler()
	net := netsim.New(s)
	return &rig{sched: s, net: net, sw: net.NewSwitch("sw")}
}

func (r *rig) host(n uint32) *netstack.Host {
	nic := r.net.NewNode("h").AddNIC()
	r.net.Connect(nic, r.sw.NewPort(), netsim.LinkConfig{})
	return netstack.NewHost(nic, netstack.HostConfig{
		Addr: subnet.Host(n), Subnet: subnet, Seed: int64(n),
	})
}

func TestTelnetAcceptsFactoryCredential(t *testing.T) {
	r := newRig()
	devHost := r.host(10)
	svc := NewTelnetService("root", "xc3511")
	if err := svc.Attach(devHost); err != nil {
		t.Fatal(err)
	}
	attacker := r.host(3)
	var got []byte
	conn := attacker.DialTCP(devHost.Addr(), TelnetPort)
	conn.OnData = func(d []byte) {
		got = append(got, d...)
		s := string(got)
		switch {
		case s == "login: ":
			conn.Send([]byte("root\r\n"))
		case len(s) >= 10 && s[len(s)-10:] == "Password: ":
			conn.Send([]byte("xc3511\r\n"))
		}
	}
	if err := r.sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	s := string(got)
	if len(s) < 2 || s[len(s)-2:] != "$ " {
		t.Fatalf("no shell prompt, transcript: %q", s)
	}
	if strings.Contains(s, "Login incorrect") {
		t.Fatalf("factory credential refused, transcript: %q", s)
	}
}

func TestTelnetLockoutAfterThreeFailures(t *testing.T) {
	r := newRig()
	devHost := r.host(10)
	svc := NewTelnetService("root", "secret")
	if err := svc.Attach(devHost); err != nil {
		t.Fatal(err)
	}
	attacker := r.host(3)
	conn := attacker.DialTCP(devHost.Addr(), TelnetPort)
	closed := false
	var buf []byte
	conn.OnData = func(d []byte) {
		buf = append(buf, d...)
		s := string(buf)
		if len(s) >= 7 && s[len(s)-7:] == "login: " {
			conn.Send([]byte("root\r\n"))
		} else if len(s) >= 10 && s[len(s)-10:] == "Password: " {
			conn.Send([]byte("wrong\r\n"))
		}
	}
	conn.OnClose = func(err error) { closed = true }
	conn.OnRemoteClose = func() { conn.Close() }
	if err := r.sched.Run(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !closed {
		t.Fatal("connection not closed after lockout")
	}
	if failures := strings.Count(string(buf), "Login incorrect"); failures != 3 {
		t.Fatalf("failures = %d, want 3", failures)
	}
}

func TestHardenedDeviceRejectsEverything(t *testing.T) {
	svc := NewTelnetService("", "")
	if !svc.hardened {
		t.Fatal("empty user should harden")
	}
}

func TestInstallCommandTriggersCallback(t *testing.T) {
	r := newRig()
	devHost := r.host(10)
	svc := NewTelnetService("admin", "admin")
	var gotAddr packet.Addr
	var gotPort uint16
	svc.OnInstall = func(a packet.Addr, p uint16) { gotAddr, gotPort = a, p }
	if err := svc.Attach(devHost); err != nil {
		t.Fatal(err)
	}
	attacker := r.host(3)
	conn := attacker.DialTCP(devHost.Addr(), TelnetPort)
	var buf []byte
	sawOK := false
	conn.OnData = func(d []byte) {
		buf = append(buf, d...)
		s := string(buf)
		switch {
		case len(s) >= 7 && s[len(s)-7:] == "login: ":
			conn.Send([]byte("admin\r\n"))
		case len(s) >= 10 && s[len(s)-10:] == "Password: ":
			conn.Send([]byte("admin\r\n"))
		case !sawOK && len(s) >= 2 && s[len(s)-2:] == "$ ":
			conn.Send([]byte("INSTALL 10.0.0.2 5555\r\n"))
			sawOK = true
		}
	}
	if err := r.sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if gotAddr != packet.AddrFrom4(10, 0, 0, 2) || gotPort != 5555 {
		t.Fatalf("install = %v:%d", gotAddr, gotPort)
	}
	if oks := strings.Count(string(buf), "OK\r\n"); oks != 1 {
		t.Fatalf("installs = %d", oks)
	}
}

func TestDeviceRunsBenignWorkloads(t *testing.T) {
	r := newRig()
	serverHost := r.host(0x0100 + 1) // 10.0.1.1
	httpSrv := httpapp.NewServer(httpapp.ServerConfig{Seed: 1})
	if err := httpSrv.Attach(serverHost); err != nil {
		t.Fatal(err)
	}
	devHost := r.host(10)
	dev := New(Config{
		Name:      "dev1",
		Profile:   ProfileSensor, // HTTP only, chatty
		TServer:   serverHost.Addr(),
		Seed:      7,
		MeanThink: time.Second,
	})
	dev.StartOn(devHost)
	if err := r.sched.Run(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	started, completed := dev.BenignStats()
	if started < 20 || completed < 15 {
		t.Fatalf("benign activity: started=%d completed=%d", started, completed)
	}
	if dev.Infected() {
		t.Fatal("clean device reports infected")
	}
	if ProfileSensor.Cred.User != "" {
		t.Fatal("sensor profile should be hardened")
	}
}

// TestEndToEndInfectionChain drives the full Mirai lifecycle: scanner
// cracks the device, loader installs, bot registers with C2, C2 commands a
// flood, flood packets hit the target.
func TestEndToEndInfectionChain(t *testing.T) {
	r := newRig()

	// Target server (TServer stand-in).
	targetHost := r.host(0x0100 + 1)

	// C2.
	c2Host := r.host(2)
	c2 := botnet.NewC2()
	if err := c2.Attach(c2Host); err != nil {
		t.Fatal(err)
	}

	// Vulnerable device.
	devHost := r.host(10)
	dev := New(Config{
		Name:       "cam0",
		Profile:    ProfileIPCamera,
		TServer:    targetHost.Addr(),
		SpoofRange: packet.Prefix{Addr: packet.AddrFrom4(10, 0, 200, 0), Bits: 24},
		Seed:       5,
		MeanThink:  time.Hour, // silence benign chatter for this test
	})
	dev.StartOn(devHost)

	// Attacker scanning a narrow range that contains the device.
	atkHost := r.host(3)
	atk := botnet.NewAttacker(botnet.AttackerConfig{
		TargetRange:       packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 8), Bits: 29}, // .9-.14
		C2Addr:            c2Host.Addr(),
		MeanProbeInterval: 200 * time.Millisecond,
		Seed:              1,
	})
	var infectedAddr packet.Addr
	atk.OnInfected = func(a packet.Addr, cred botnet.Credential) {
		infectedAddr = a
		if cred.Pass != "xc3511" {
			t.Errorf("cracked with unexpected credential %v", cred)
		}
	}
	atk.Attach(atkHost)

	// Count flood SYNs at the target.
	syns := 0
	for _, l := range r.net.Links() {
		if l.SideOf(targetHost.NIC()) < 0 {
			continue
		}
		l.AddTap(func(at sim.Time, raw []byte, _ trace.Context) {
			p := new(packet.Packet)
			if packet.DecodeInto(p, at, raw) == nil && p.HasTCP && p.IPv4.Dst == targetHost.Addr() && p.TCP.DstPort == 80 &&
				p.TCP.Flags == packet.FlagSYN && p.IPv4.Src != devHost.Addr() {
				syns++
			}
		})
	}

	// Let the scan-and-infect phase run.
	if err := r.sched.Run(120 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if infectedAddr != devHost.Addr() {
		t.Fatalf("device not infected (got %v)", infectedAddr)
	}
	if !dev.Infected() {
		t.Fatal("device has no bot")
	}
	if c2.Bots() != 1 {
		t.Fatalf("C2 bots = %d", c2.Bots())
	}

	// Command an attack.
	c2.Broadcast(botnet.Command{
		Type: botnet.AttackSYN, Target: targetHost.Addr(), Port: 80,
		Duration: 2 * time.Second, PPS: 200,
	})
	if err := r.sched.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if syns < 300 {
		t.Fatalf("flood SYNs at target = %d", syns)
	}

	// Stop the scanner, then reboot the device: infection is lost and,
	// with no scanner running, stays lost.
	atk.Detach()
	dev.Stop()
	dev.StartOn(devHost)
	if dev.Infected() {
		t.Fatal("infection survived reboot")
	}
	if err := r.sched.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c2.Bots() != 0 {
		t.Fatalf("C2 still sees %d bots after reboot", c2.Bots())
	}
	probes, connects, cracked, infections := atk.Stats()
	if probes == 0 || connects == 0 || cracked == 0 || infections == 0 {
		t.Fatalf("attacker stats: %d %d %d %d", probes, connects, cracked, infections)
	}
}

func TestDeviceReinfectionAfterReboot(t *testing.T) {
	r := newRig()
	c2Host := r.host(2)
	c2 := botnet.NewC2()
	if err := c2.Attach(c2Host); err != nil {
		t.Fatal(err)
	}
	devHost := r.host(10)
	dev := New(Config{
		Name: "dvr0", Profile: ProfileDVR,
		TServer:   c2Host.Addr(), // unused: benign silenced
		Seed:      3,
		MeanThink: time.Hour,
	})
	dev.StartOn(devHost)
	atkHost := r.host(3)
	atk := botnet.NewAttacker(botnet.AttackerConfig{
		TargetRange:       packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 8), Bits: 30}, // .9-.10
		C2Addr:            c2Host.Addr(),
		MeanProbeInterval: 200 * time.Millisecond,
		ReinfectCooldown:  30 * time.Second,
		Seed:              2,
	})
	atk.Attach(atkHost)
	if err := r.sched.Run(120 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !dev.Infected() {
		t.Fatal("initial infection failed")
	}
	dev.Stop()
	dev.StartOn(devHost)
	// Scanner keeps probing; the device is re-infected.
	if err := r.sched.RunFor(240 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !dev.Infected() {
		t.Fatal("device never re-infected after reboot")
	}
}

// TestTelnetServiceRetainedPerDevice pins the service-object ownership
// rule: a device keeps its own TelnetService across restarts (same object,
// re-armed) and two devices never share one. Telnet sessions opened before
// a crash outlive Stop(), so a service that changed owners would leak one
// device's credential and install hook into another's late events — and
// which device inherited the object would depend on runtime scheduling,
// breaking cross-run determinism in churned campaigns.
func TestTelnetServiceRetainedPerDevice(t *testing.T) {
	r := newRig()
	hostA, hostB := r.host(10), r.host(11)
	devA := New(Config{Name: "a", Profile: ProfileDVR, Seed: 1, MeanThink: time.Hour})
	devB := New(Config{Name: "b", Profile: ProfileDVR, Seed: 2, MeanThink: time.Hour})
	devA.StartOn(hostA)
	devB.StartOn(hostB)
	if devA.Telnet() == devB.Telnet() {
		t.Fatal("two devices share one TelnetService")
	}
	svc := devA.Telnet()
	if svc == nil {
		t.Fatal("no service after start")
	}
	devA.Stop()
	if devA.Telnet() != svc {
		t.Fatal("Stop released the service object")
	}
	devA.StartOn(hostA)
	if devA.Telnet() != svc {
		t.Fatal("restart did not reuse the device's own service")
	}
	if devA.Telnet() == devB.Telnet() {
		t.Fatal("restart handed over another device's service")
	}
}
