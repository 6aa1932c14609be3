package botnet

import (
	"testing"
	"testing/quick"
	"time"

	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

// Property: every representable command survives the C2 wire round trip
// as the bots execute it (Command.OnWire: whole seconds, one at least).
func TestCommandWireProperty(t *testing.T) {
	f := func(typ uint8, target uint32, port uint16, durS uint16, pps uint16) bool {
		cmd := Command{
			Type:     AttackType(int(typ)%3 + 1),
			Target:   packet.AddrFromUint32(target),
			Port:     port,
			Duration: time.Duration(durS) * time.Second,
			PPS:      int(pps),
		}
		got, err := ParseCommand(cmd.String())
		if err != nil {
			return false
		}
		return got == cmd.OnWire()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: flood frames always dissect as well-formed packets of the
// commanded type aimed at the commanded target.
func TestFloodFramesWellFormedProperty(t *testing.T) {
	r := newRig()
	bot := r.host(10)
	target := r.host(0x0100 + 1)
	spoof := packet.Prefix{Addr: packet.AddrFrom4(10, 0, 200, 0), Bits: 24}
	bad := 0
	checked := 0
	tap := func(at sim.Time, raw []byte, _ trace.Context) {
		p := new(packet.Packet)
		if err := packet.DecodeInto(p, at, raw); err != nil {
			bad++
			return
		}
		if !p.HasIPv4 || p.IPv4.Dst != target.Addr() {
			return // ARP etc.
		}
		checked++
		switch {
		case p.HasTCP:
			if p.TCP.DstPort != 80 {
				bad++
			}
			// Transport checksum must verify.
			seg := p.Raw[packet.EthernetHeaderLen+packet.IPv4HeaderLen:]
			if _, _, err := packet.UnmarshalTCP(seg, p.IPv4.Src, p.IPv4.Dst, true); err != nil {
				bad++
			}
		case p.HasUDP:
			seg := p.Raw[packet.EthernetHeaderLen+packet.IPv4HeaderLen:]
			if _, _, err := packet.UnmarshalUDP(seg, p.IPv4.Src, p.IPv4.Dst, true); err != nil {
				bad++
			}
		default:
			bad++
		}
	}
	r.tapHost(target, tap)
	for i, at := range []AttackType{AttackSYN, AttackACK, AttackUDP} {
		f := NewFlood(bot, sim.NewRNG(int64(i)), Command{
			Type: at, Target: target.Addr(), Port: 80,
			Duration: time.Second, PPS: 100,
		}, spoof)
		f.Start()
		if err := r.sched.RunFor(3 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if checked < 250 {
		t.Fatalf("checked only %d frames", checked)
	}
	if bad != 0 {
		t.Fatalf("%d malformed flood frames of %d", bad, checked)
	}
}

func TestFloodStopMidAttack(t *testing.T) {
	r := newRig()
	bot := r.host(11)
	target := r.host(0x0100 + 1)
	f := NewFlood(bot, sim.NewRNG(1), Command{
		Type: AttackUDP, Target: target.Addr(), Duration: time.Minute, PPS: 100,
	}, packet.Prefix{})
	f.Start()
	if err := r.sched.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	sentAtStop := f.Sent()
	if sentAtStop == 0 {
		t.Fatal("flood never started")
	}
	f.Stop()
	if err := r.sched.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.Sent() != sentAtStop {
		t.Fatalf("flood kept emitting after Stop: %d -> %d", sentAtStop, f.Sent())
	}
}

func TestC2DuplicateRegistrationReplacesSession(t *testing.T) {
	r := newRig()
	c2Host := r.host(2)
	c2 := NewC2()
	if err := c2.Attach(c2Host); err != nil {
		t.Fatal(err)
	}
	// Two bots claim the same ID (a re-imaged device): the second wins.
	b1 := NewBot("dup", c2Host.Addr(), 0, packet.Prefix{}, 1)
	b1.Attach(r.host(20))
	if err := r.sched.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	b2 := NewBot("dup", c2Host.Addr(), 0, packet.Prefix{}, 2)
	b2.Attach(r.host(21))
	if err := r.sched.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c2.Bots() != 1 {
		t.Fatalf("duplicate ID produced %d sessions", c2.Bots())
	}
}

func TestAttackerSkipsC2AndSelf(t *testing.T) {
	r := newRig()
	c2Host := r.host(2)
	atkHost := r.host(3)
	// Range covering only the attacker and C2 addresses: no probes may
	// produce telnet connections.
	atk := NewAttacker(AttackerConfig{
		TargetRange:       packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 0), Bits: 29}, // .1-.6
		C2Addr:            c2Host.Addr(),
		MeanProbeInterval: 50 * time.Millisecond,
		Seed:              1,
	})
	atk.Attach(atkHost)
	if err := r.sched.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	_, connects, cracked, _ := atk.Stats()
	if cracked != 0 {
		t.Fatalf("cracked %d with no devices in range", cracked)
	}
	_ = connects // connects may be >0 only if something listened on :23
}

func TestFloodAgainstUnresolvableTarget(t *testing.T) {
	r := newRig()
	bot := r.host(12)
	ghost := packet.AddrFrom4(10, 0, 77, 77) // nobody home
	f := NewFlood(bot, sim.NewRNG(1), Command{
		Type: AttackSYN, Target: ghost, Port: 80, Duration: time.Second, PPS: 100,
	}, packet.Prefix{})
	f.Start()
	if err := r.sched.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.Sent() != 0 {
		t.Fatalf("flood emitted %d frames to an unresolvable target", f.Sent())
	}
}
