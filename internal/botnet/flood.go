package botnet

import (
	"fmt"
	"strings"
	"time"

	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

// AttackType enumerates the implemented Mirai flood vectors. The paper
// evaluates SYN, ACK and UDP floods and deliberately excludes
// application-level attacks (HTTP/DNS floods); AttackHTTP is the one
// extension.
type AttackType int

// Flood vectors.
const (
	AttackSYN AttackType = iota + 1
	AttackACK
	AttackUDP
	// AttackHTTP is the application-level GET flood the paper's §IV-D
	// deliberately excludes ("more complex application-level attacks like
	// HTTP Flood ... necessitate additional application-level analysis")
	// and §V lists among the threats a fuller testbed should cover. Unlike
	// the raw-frame vectors, an HTTP flood opens real TCP connections from
	// the bot's own address and issues well-formed requests — traffic that
	// is protocol-indistinguishable from benign browsing at the header
	// level, which is exactly what makes it the hard case for the IDS.
	AttackHTTP
)

// String renders the vector name used in the C2 wire protocol.
func (a AttackType) String() string {
	switch a {
	case AttackSYN:
		return "syn"
	case AttackACK:
		return "ack"
	case AttackUDP:
		return "udp"
	case AttackHTTP:
		return "http"
	}
	return fmt.Sprintf("AttackType(%d)", int(a))
}

// ParseAttackType parses a C2 vector token.
func ParseAttackType(s string) (AttackType, error) {
	switch strings.ToLower(s) {
	case "syn":
		return AttackSYN, nil
	case "ack":
		return AttackACK, nil
	case "udp":
		return AttackUDP, nil
	case "http":
		return AttackHTTP, nil
	}
	return 0, fmt.Errorf("botnet: unknown attack type %q", s)
}

// Command is one attack order: flood target:port with the given vector for
// Duration at PPS packets per second (per bot).
type Command struct {
	Type     AttackType
	Target   packet.Addr
	Port     uint16
	Duration time.Duration
	PPS      int
}

// OnWire returns the command as the bots will execute it. The wire form
// carries whole seconds, so Duration is rounded up to the next second, and
// to one second at least: a sub-second order floods for a second rather
// than being told to flood for none. Everything that needs to agree with
// the bots — the wire line, the C2's labelled attack interval, the spacing
// of scheduled waves — goes through here.
func (c Command) OnWire() Command {
	c.Duration = max(time.Second, (c.Duration + time.Second - 1).Truncate(time.Second))
	return c
}

// String renders the C2 wire form ("ATK syn 10.0.1.1 80 60 500").
func (c Command) String() string {
	return fmt.Sprintf("ATK %s %s %d %d %d",
		c.Type, c.Target, c.Port, int(c.OnWire().Duration/time.Second), c.PPS)
}

// ParseCommand parses the C2 wire form.
func ParseCommand(line string) (Command, error) {
	var (
		typ       string
		target    string
		port      uint16
		durS, pps int
	)
	if _, err := fmt.Sscanf(line, "ATK %s %s %d %d %d", &typ, &target, &port, &durS, &pps); err != nil {
		return Command{}, fmt.Errorf("botnet: parse command %q: %w", line, err)
	}
	at, err := ParseAttackType(typ)
	if err != nil {
		return Command{}, err
	}
	addr, err := packet.ParseAddr(target)
	if err != nil {
		return Command{}, err
	}
	return Command{Type: at, Target: addr, Port: port, Duration: time.Duration(durS) * time.Second, PPS: pps}, nil
}

// floodBatchInterval is the pacing quantum: each tick emits pps-scaled
// batches so high rates do not cost one scheduler event per packet.
const floodBatchInterval = 10 * time.Millisecond

// UDPPayloadLen is the fixed flood datagram payload size (Mirai's default
// UDP flood uses 512-byte payloads).
const UDPPayloadLen = 512

// Flood executes one attack command from a host. The spoof prefix, when
// non-zero, supplies the randomized source addresses for SYN/ACK floods
// (Mirai forges sources via raw sockets); UDP floods use the bot's own
// address with randomized ports, as the real generic UDP vector does. An
// HTTP flood opens one short-lived TCP connection per unit from the bot's
// own address, the classic GET flood that exhausts server backlogs and
// worker pools.
type Flood struct {
	host   *netstack.Host
	rng    *sim.RNG
	cmd    Command
	spoof  packet.Prefix
	ticker *sim.Ticker
	ends   sim.Time
	// stopped is set by Stop: a raw vector stopped while the target's ARP
	// is still in flight must not start when it answers.
	stopped bool
	// OnDone fires when the attack duration elapses.
	OnDone func()

	sent    uint64
	payload []byte
	// originName is the trace origin-span label ("flood-syn", ...),
	// precomputed so the per-packet emit path stays allocation-free.
	originName string
}

// NewFlood prepares (but does not start) a flood. For AttackHTTP, cmd.PPS
// counts connections per second and cmd.Port 0 defaults to 80.
func NewFlood(host *netstack.Host, rng *sim.RNG, cmd Command, spoof packet.Prefix) *Flood {
	f := &Flood{
		host: host, rng: rng, cmd: cmd, spoof: spoof,
		originName: "flood-" + cmd.Type.String(),
	}
	if cmd.Type == AttackHTTP {
		if f.cmd.Port == 0 {
			f.cmd.Port = 80
		}
		return f
	}
	f.payload = make([]byte, UDPPayloadLen)
	rng.Bytes(f.payload)
	return f
}

// Sent reports attack units emitted so far: packets, or connections for
// AttackHTTP.
func (f *Flood) Sent() uint64 { return f.sent }

// Start begins the attack. An HTTP flood's connections resolve the target
// themselves, so it paces at once; the raw vectors first wait for the
// target's ARP, which sets their pacing phase, and then hand each forged
// frame to Host.SendFrame.
func (f *Flood) Start() {
	f.ends = f.host.Now().Add(f.cmd.Duration)
	if f.cmd.Type == AttackHTTP {
		f.pace()
		return
	}
	f.host.ResolveMAC(f.cmd.Target, func(_ packet.MAC, ok bool) {
		if ok && !f.stopped {
			f.pace()
		}
	})
}

// pace emits cmd.PPS units a second in floodBatchInterval batches until
// the attack ends, then stops and fires OnDone.
func (f *Flood) pace() {
	if f.ticker != nil {
		return
	}
	perTick := float64(f.cmd.PPS) * floodBatchInterval.Seconds()
	var credit float64
	f.ticker = f.host.Scheduler().Every(floodBatchInterval, func() {
		if f.host.Now() >= f.ends {
			f.Stop()
			if f.OnDone != nil {
				f.OnDone()
			}
			return
		}
		credit += perTick
		for ; credit >= 1; credit-- {
			f.emit()
		}
	})
}

// Stop halts the flood immediately, or keeps one still waiting for the
// target's ARP from starting.
func (f *Flood) Stop() {
	f.stopped = true
	if f.ticker != nil {
		f.ticker.Stop()
		f.ticker = nil
	}
}

func (f *Flood) spoofedSource() packet.Addr {
	if f.spoof.Bits == 0 {
		return f.host.Addr()
	}
	n := f.spoof.NumHosts()
	return f.spoof.Host(uint32(f.rng.Intn(int(n))) + 1)
}

// originCtx opens a KindAttack origin span for one flood packet when the
// (randomized) flow is sampled; with tracing off it costs nothing.
func (f *Flood) originCtx(src packet.Addr, srcPort, dstPort uint16, proto uint8) trace.Context {
	tr := f.host.Tracer()
	if tr == nil {
		return trace.Context{}
	}
	fl := trace.Flow{
		Src: src.Uint32(), Dst: f.cmd.Target.Uint32(),
		SrcPort: srcPort, DstPort: dstPort, Proto: proto,
	}
	return tr.OriginKind(f.host.Now(), fl, trace.KindAttack, f.originName, f.host.Name())
}

func (f *Flood) emit() {
	f.sent++
	if f.cmd.Type == AttackHTTP {
		f.request()
		return
	}
	ip := packet.IPv4{
		TTL: 64,
		ID:  uint16(f.rng.Intn(65536)),
		Dst: f.cmd.Target,
	}
	switch f.cmd.Type {
	case AttackSYN:
		ip.Src = f.spoofedSource()
		tcp := packet.TCP{
			SrcPort: uint16(f.rng.Intn(64512) + 1024),
			DstPort: f.cmd.Port,
			Seq:     f.rng.Uint32(),
			Flags:   packet.FlagSYN,
			Window:  uint16(f.rng.Intn(65535) + 1),
		}
		oc := f.originCtx(ip.Src, tcp.SrcPort, tcp.DstPort, packet.ProtoTCP)
		f.host.SendFrame(f.cmd.Target, packet.BuildTCP(f.host.MAC(), packet.MAC{}, ip, tcp, nil), oc)
	case AttackACK:
		ip.Src = f.spoofedSource()
		tcp := packet.TCP{
			SrcPort: uint16(f.rng.Intn(64512) + 1024),
			DstPort: f.cmd.Port,
			Seq:     f.rng.Uint32(),
			Ack:     f.rng.Uint32(),
			Flags:   packet.FlagACK,
			Window:  uint16(f.rng.Intn(65535) + 1),
		}
		oc := f.originCtx(ip.Src, tcp.SrcPort, tcp.DstPort, packet.ProtoTCP)
		f.host.SendFrame(f.cmd.Target, packet.BuildTCP(f.host.MAC(), packet.MAC{}, ip, tcp, nil), oc)
	case AttackUDP:
		ip.Src = f.host.Addr()
		udp := packet.UDP{
			SrcPort: uint16(f.rng.Intn(64512) + 1024),
			DstPort: f.udpDstPort(),
		}
		oc := f.originCtx(ip.Src, udp.SrcPort, udp.DstPort, packet.ProtoUDP)
		f.host.SendFrame(f.cmd.Target, packet.BuildUDP(f.host.MAC(), packet.MAC{}, ip, udp, f.payload), oc)
	}
}

// request issues one GET over a fresh connection.
func (f *Flood) request() {
	conn := f.host.DialTCP(f.cmd.Target, f.cmd.Port)
	path := fmt.Sprintf("/?%d", f.rng.Uint32())
	conn.OnConnect = func() {
		conn.Send([]byte("GET " + path + " HTTP/1.1\r\nHost: target\r\n\r\n"))
	}
	responded := false
	conn.OnData = func(d []byte) {
		if !responded {
			responded = true
			// A GET flood doesn't wait for the body: sever immediately to
			// free the local port and maximize server-side churn.
			conn.Abort()
		}
	}
	conn.OnRemoteClose = func() { conn.Close() }
}

// udpDstPort randomizes the destination port when the command leaves it 0
// (Mirai's generic UDP flood sprays random ports), otherwise targets the
// commanded port.
func (f *Flood) udpDstPort() uint16 {
	if f.cmd.Port != 0 {
		return f.cmd.Port
	}
	return uint16(f.rng.Intn(64512) + 1024)
}
