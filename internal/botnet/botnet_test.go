package botnet

import (
	"testing"
	"time"

	"ddoshield/internal/netsim"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

type rig struct {
	sched *sim.Scheduler
	net   *netsim.Network
	sw    *netsim.Switch
	next  uint32
}

func newRig() *rig {
	s := sim.NewScheduler()
	net := netsim.New(s)
	return &rig{sched: s, net: net, sw: net.NewSwitch("sw")}
}

var subnet = packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 0), Bits: 16}

func (r *rig) host(lastOctets uint32) *netstack.Host {
	nic := r.net.NewNode("h").AddNIC()
	r.net.Connect(nic, r.sw.NewPort(), netsim.LinkConfig{})
	r.next++
	return netstack.NewHost(nic, netstack.HostConfig{
		Addr:   subnet.Host(lastOctets),
		Subnet: subnet,
		Seed:   int64(lastOctets),
	})
}

func TestAttackTypeRoundTrip(t *testing.T) {
	for _, at := range []AttackType{AttackSYN, AttackACK, AttackUDP} {
		got, err := ParseAttackType(at.String())
		if err != nil || got != at {
			t.Fatalf("round trip %v: %v %v", at, got, err)
		}
	}
	if _, err := ParseAttackType("dns"); err == nil {
		t.Fatal("accepted unknown type")
	}
}

func TestCommandRoundTrip(t *testing.T) {
	cmd := Command{
		Type:     AttackSYN,
		Target:   packet.AddrFrom4(10, 0, 1, 1),
		Port:     80,
		Duration: 60 * time.Second,
		PPS:      500,
	}
	got, err := ParseCommand(cmd.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != cmd {
		t.Fatalf("round trip: %+v vs %+v", got, cmd)
	}
	if _, err := ParseCommand("ATK nonsense"); err == nil {
		t.Fatal("accepted malformed command")
	}
	if _, err := ParseCommand("ATK syn 10.0.0.999 80 60 500"); err == nil {
		t.Fatal("accepted bad address")
	}
}

func TestSYNFloodEmitsSpoofedSYNs(t *testing.T) {
	r := newRig()
	bot := r.host(10)
	target := r.host(0x0100 + 1) // 10.0.1.1
	spoof := packet.Prefix{Addr: packet.AddrFrom4(10, 0, 200, 0), Bits: 24}
	var syns, others int
	srcs := map[packet.Addr]bool{}
	ports := map[uint16]bool{}
	r.tapHost(target, decodeTap(func(p *packet.Packet) {
		if p.HasTCP && p.IPv4.Dst == target.Addr() && p.TCP.DstPort == 80 {
			if p.TCP.Flags == packet.FlagSYN {
				syns++
				srcs[p.IPv4.Src] = true
				ports[p.TCP.SrcPort] = true
			} else {
				others++
			}
		}
	}))
	cmd := Command{Type: AttackSYN, Target: target.Addr(), Port: 80, Duration: 2 * time.Second, PPS: 500}
	f := NewFlood(bot, sim.NewRNG(1), cmd, spoof)
	done := false
	f.OnDone = func() { done = true }
	f.Start()
	if err := r.sched.Run(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("flood never reported done")
	}
	if syns < 800 || syns > 1200 {
		t.Fatalf("SYNs = %d, want ~1000 (2s at 500pps)", syns)
	}
	if len(srcs) < 100 {
		t.Fatalf("distinct spoofed sources = %d", len(srcs))
	}
	for src := range srcs {
		if !spoof.Contains(src) {
			t.Fatalf("source %v outside spoof range", src)
		}
	}
	if len(ports) < 100 {
		t.Fatalf("distinct source ports = %d", len(ports))
	}
	if f.Sent() == 0 {
		t.Fatal("Sent() = 0")
	}
}

func TestUDPFloodUsesOwnAddressAndPayload(t *testing.T) {
	r := newRig()
	bot := r.host(11)
	target := r.host(0x0100 + 1)
	var udps int
	var payloadLen int
	dstPorts := map[uint16]bool{}
	r.tapHost(target, decodeTap(func(p *packet.Packet) {
		if p.HasUDP && p.IPv4.Dst == target.Addr() {
			udps++
			payloadLen = len(p.Payload)
			dstPorts[p.UDP.DstPort] = true
			if p.IPv4.Src != bot.Addr() {
				t.Errorf("UDP flood spoofed source %v", p.IPv4.Src)
			}
		}
	}))
	cmd := Command{Type: AttackUDP, Target: target.Addr(), Duration: time.Second, PPS: 200}
	f := NewFlood(bot, sim.NewRNG(2), cmd, packet.Prefix{Addr: packet.AddrFrom4(10, 0, 200, 0), Bits: 24})
	f.Start()
	if err := r.sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if udps < 150 || udps > 260 {
		t.Fatalf("UDP datagrams = %d, want ~200", udps)
	}
	if payloadLen != UDPPayloadLen {
		t.Fatalf("payload = %d bytes, want %d", payloadLen, UDPPayloadLen)
	}
	if len(dstPorts) < 50 {
		t.Fatalf("destination ports not randomized: %d distinct", len(dstPorts))
	}
}

func TestACKFloodFlags(t *testing.T) {
	r := newRig()
	bot := r.host(12)
	target := r.host(0x0100 + 1)
	acks := 0
	r.tapHost(target, decodeTap(func(p *packet.Packet) {
		if p.HasTCP && p.IPv4.Dst == target.Addr() && p.TCP.DstPort == 80 && p.TCP.Flags == packet.FlagACK {
			acks++
		}
	}))
	cmd := Command{Type: AttackACK, Target: target.Addr(), Port: 80, Duration: time.Second, PPS: 100}
	f := NewFlood(bot, sim.NewRNG(3), cmd, packet.Prefix{Addr: packet.AddrFrom4(10, 0, 200, 0), Bits: 24})
	f.Start()
	if err := r.sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if acks < 80 {
		t.Fatalf("ACK packets = %d", acks)
	}
}

func TestC2RegistrationAndBroadcast(t *testing.T) {
	r := newRig()
	c2Host := r.host(2)
	c2 := NewC2()
	if err := c2.Attach(c2Host); err != nil {
		t.Fatal(err)
	}
	target := r.host(0x0100 + 1)
	spoof := packet.Prefix{Addr: packet.AddrFrom4(10, 0, 200, 0), Bits: 24}
	bots := make([]*Bot, 3)
	for i := range bots {
		bots[i] = NewBot("bot"+string(rune('a'+i)), c2Host.Addr(), 0, spoof, int64(i))
		bots[i].Attach(r.host(uint32(20 + i)))
	}
	if err := r.sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if c2.Bots() != 3 {
		t.Fatalf("connected bots = %d, want 3", c2.Bots())
	}
	n := c2.Broadcast(Command{Type: AttackUDP, Target: target.Addr(), Duration: time.Second, PPS: 50})
	if n != 3 {
		t.Fatalf("Broadcast reached %d", n)
	}
	if err := r.sched.RunFor((10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for i, b := range bots {
		attacks, pkts := b.Stats()
		if attacks != 1 || pkts == 0 {
			t.Fatalf("bot %d: attacks=%d pkts=%d", i, attacks, pkts)
		}
	}
	reg, sent := c2.Stats()
	if reg != 3 || sent != 3 {
		t.Fatalf("c2 stats reg=%d sent=%d", reg, sent)
	}
}

func TestBotDetachDropsFromC2(t *testing.T) {
	r := newRig()
	c2Host := r.host(2)
	c2 := NewC2()
	if err := c2.Attach(c2Host); err != nil {
		t.Fatal(err)
	}
	b := NewBot("bot1", c2Host.Addr(), 0, packet.Prefix{}, 1)
	b.Attach(r.host(20))
	if err := r.sched.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if c2.Bots() != 1 {
		t.Fatalf("bots = %d", c2.Bots())
	}
	b.Detach()
	if err := r.sched.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c2.Bots() != 0 {
		t.Fatalf("bots after detach = %d", c2.Bots())
	}
	hist := c2.History()
	if len(hist) < 2 || hist[len(hist)-1].Bots != 0 {
		t.Fatalf("history = %+v", hist)
	}
}

// TestBotReconnectsAfterC2Restart: a bot redials until its C2 is up, and
// redials again when the C2 drops its session, as a restarted C2 would.
func TestBotReconnectsAfterC2Restart(t *testing.T) {
	r := newRig()
	c2Host := r.host(2)
	c2 := NewC2()
	b := NewBot("bot1", c2Host.Addr(), 0, packet.Prefix{}, 1)
	b.Attach(r.host(20))
	if err := r.sched.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c2.Attach(c2Host); err != nil {
		t.Fatal(err)
	}
	if err := r.sched.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c2.Bots() != 1 {
		t.Fatalf("bot never registered with a late C2: %d", c2.Bots())
	}
	// The C2 drops every session: the bot's dies, and it registers anew.
	for _, sess := range c2.bots {
		sess.conn.Abort()
	}
	c2.bots = map[string]*botSession{}
	if err := r.sched.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c2.Bots() != 1 {
		t.Fatalf("bot never re-registered: %d", c2.Bots())
	}
}

// TestCommandOnWireRoundsUp pins the one rounding rule: the wire carries
// whole seconds, a duration rounds up to the next one (at least one), and
// a whole-second command is untouched — so its wire line is the one it
// always was.
func TestCommandOnWireRoundsUp(t *testing.T) {
	for _, tc := range []struct{ in, want time.Duration }{
		{0, time.Second},
		{625 * time.Millisecond, time.Second},
		{time.Second, time.Second},
		{time.Second + time.Nanosecond, 2 * time.Second},
		{2500 * time.Millisecond, 3 * time.Second},
		{60 * time.Second, 60 * time.Second},
	} {
		cmd := Command{Type: AttackUDP, Target: packet.AddrFrom4(10, 0, 1, 1), Port: 80, Duration: tc.in, PPS: 500}
		if got := cmd.OnWire().Duration; got != tc.want {
			t.Errorf("OnWire(%v).Duration = %v, want %v", tc.in, got, tc.want)
		}
		parsed, err := ParseCommand(cmd.String())
		if err != nil {
			t.Fatal(err)
		}
		if parsed != cmd.OnWire() {
			t.Errorf("Duration %v: bots parse %+v, want %+v", tc.in, parsed, cmd.OnWire())
		}
	}
	whole := Command{Type: AttackSYN, Target: packet.AddrFrom4(10, 0, 1, 1), Port: 80, Duration: 60 * time.Second, PPS: 500}
	if got, want := whole.String(), "ATK syn 10.0.1.1 80 60 500"; got != want {
		t.Fatalf("whole-second wire form moved: %q, want %q", got, want)
	}
}

// TestSubSecondWaveFloodsLabelledInterval is the regression test for the
// truncated wire duration: a 625 ms order used to reach the bots as "flood
// for 0 s" while the C2 still labelled 625 ms of attack that never ran.
// The bot must flood, and for exactly the interval the C2 recorded.
func TestSubSecondWaveFloodsLabelledInterval(t *testing.T) {
	r := newRig()
	c2Host := r.host(2)
	c2 := NewC2()
	if err := c2.Attach(c2Host); err != nil {
		t.Fatal(err)
	}
	target := r.host(0x0100 + 1)
	b := NewBot("bot1", c2Host.Addr(), 0, packet.Prefix{Addr: packet.AddrFrom4(10, 0, 200, 0), Bits: 24}, 1)
	b.Attach(r.host(20))

	var first, last sim.Time
	frames := 0
	r.tapHost(target, decodeTap(func(p *packet.Packet) {
		if !p.HasUDP || p.IPv4.Dst != target.Addr() {
			return
		}
		if frames == 0 {
			first = p.Time
		}
		last = p.Time
		frames++
	}))

	const pps = 200
	cmds := []Command{
		{Type: AttackUDP, Target: target.Addr(), Duration: 625 * time.Millisecond, PPS: pps},
		{Type: AttackUDP, Target: target.Addr(), Duration: 625 * time.Millisecond, PPS: pps},
	}
	// The second order follows the first's duration on the wire, not the
	// one requested: 10 s + 1 s + 2 s gap.
	r.sched.At(10*sim.Second, func() { c2.Broadcast(cmds[0]) })
	r.sched.At((10 * sim.Second).Add(cmds[0].OnWire().Duration+2*time.Second), func() { c2.Broadcast(cmds[1]) })
	if err := r.sched.Run(12 * sim.Second); err != nil {
		t.Fatal(err)
	}
	ivs := c2.Intervals()
	if len(ivs) != 1 {
		t.Fatalf("intervals after the first order = %d, want 1", len(ivs))
	}
	iv := ivs[0]
	if got := (iv.End - iv.Start).Duration(); got != time.Second {
		t.Fatalf("labelled interval = %v, want the 1 s the bots were told", got)
	}
	if frames < pps*9/10 || frames > pps*11/10 {
		t.Fatalf("bot sent %d flood frames in a 1 s order at %d pps", frames, pps)
	}
	// The flood starts once the order has crossed the LAN and stops when
	// its second is up: every frame falls inside the labelled interval,
	// shifted by that delivery lag.
	lag := (first - iv.Start).Duration()
	if lag < 0 || lag > 50*time.Millisecond {
		t.Fatalf("flood started %v after the order was issued", lag)
	}
	if span := (last - first).Duration(); span > time.Second || span < 900*time.Millisecond {
		t.Fatalf("flood ran %v, labelled 1 s", span)
	}

	// The next order lands 3 s after the first.
	if err := r.sched.Run(20 * sim.Second); err != nil {
		t.Fatal(err)
	}
	ivs = c2.Intervals()
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d, want 2", len(ivs))
	}
	if got := (ivs[1].Start - ivs[0].Start).Duration(); got != 3*time.Second {
		t.Fatalf("second order issued %v after the first, want 3 s", got)
	}
	if attacks, _ := b.Stats(); attacks != 2 {
		t.Fatalf("attacks run = %d, want 2", attacks)
	}
}

// tapHost observes every frame on h's access link, both directions.
func (r *rig) tapHost(h *netstack.Host, tap netsim.Tap) {
	for _, l := range r.net.Links() {
		if l.SideOf(h.NIC()) >= 0 {
			l.AddTap(tap)
		}
	}
}

// decodeTap adapts a packet-level observer to a netsim.Tap, skipping frames
// that fail to decode.
func decodeTap(fn func(p *packet.Packet)) netsim.Tap {
	return func(at sim.Time, raw []byte, _ trace.Context) {
		if p := new(packet.Packet); packet.DecodeInto(p, at, raw) == nil {
			fn(p)
		}
	}
}

// TestFloodStoppedBeforeARPNeverStarts: a raw-vector flood stopped while
// its target's ARP is still unanswered sends nothing when the reply lands,
// and a bot whose order is superseded in that gap counts every packet it
// put on the wire.
func TestFloodStoppedBeforeARPNeverStarts(t *testing.T) {
	udp := Command{Type: AttackUDP, Port: 9, Duration: 2 * time.Second, PPS: 500}
	t.Run("flood", func(t *testing.T) {
		r := newRig()
		bot, target := r.host(10), r.host(0x0100+1)
		var floods int
		r.tapHost(target, decodeTap(func(p *packet.Packet) {
			if p.HasUDP && p.IPv4.Dst == target.Addr() {
				floods++
			}
		}))
		cmd := udp
		cmd.Target = target.Addr()
		f := NewFlood(bot, sim.NewRNG(1), cmd, packet.Prefix{})
		f.Start()
		f.Stop()
		if err := r.sched.RunFor(3 * time.Second); err != nil {
			t.Fatal(err)
		}
		if f.Sent() != 0 || floods != 0 {
			t.Fatalf("stopped flood sent %d packets, %d reached the target; want 0", f.Sent(), floods)
		}
	})
	t.Run("superseded bot", func(t *testing.T) {
		r := newRig()
		h, target := r.host(10), r.host(0x0100+1)
		var floods uint64
		r.tapHost(target, decodeTap(func(p *packet.Packet) {
			if p.HasUDP && p.IPv4.Dst == target.Addr() {
				floods++
			}
		}))
		b := NewBot("b", target.Addr(), 0, packet.Prefix{}, 1)
		b.host = h
		cmd := udp
		cmd.Target = target.Addr()
		b.execute(cmd)
		b.execute(cmd) // before the target's ARP reply
		if err := r.sched.RunFor(4 * time.Second); err != nil {
			t.Fatal(err)
		}
		attacks, sent := b.Stats()
		if attacks != 2 || sent == 0 || sent != floods {
			t.Fatalf("bot ran %d attacks and counts %d packets; %d reached the target", attacks, sent, floods)
		}
	})
}
