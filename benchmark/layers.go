package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ddoshield/internal/apps/httpapp"
	"ddoshield/internal/botnet"
	"ddoshield/internal/container"
	"ddoshield/internal/dataset"
	"ddoshield/internal/devices"
	"ddoshield/internal/features"
	"ddoshield/internal/ids"
	"ddoshield/internal/mitigation"
	"ddoshield/internal/ml"
	"ddoshield/internal/ml/cnn"
	"ddoshield/internal/ml/forest"
	"ddoshield/internal/ml/kmeans"
	"ddoshield/internal/ml/modelio"
	"ddoshield/internal/netsim"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/pcap"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/telemetry/trace"
	"ddoshield/internal/testbed"
)

// The micro-cost suite: each layer's public API called in a loop from
// outside. A cost is the median over microBatches timed batches (after one
// warm-up batch) of wall nanoseconds per operation, with heap allocations
// per operation beside it.

const microBatches = 5

type microCost struct {
	Ns     float64
	Allocs float64
}

// micro times batch, which performs and returns a number of operations.
func micro(batch func() int) microCost {
	var ns, allocs []float64
	var ms runtime.MemStats
	for i := 0; i <= microBatches; i++ {
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		start := time.Now()
		ops := float64(batch())
		wall := time.Since(start)
		runtime.ReadMemStats(&ms)
		if i == 0 || ops == 0 {
			continue // warm-up: pools fill, maps and slices reach size
		}
		ns = append(ns, float64(wall.Nanoseconds())/ops)
		allocs = append(allocs, float64(ms.Mallocs-mallocs)/ops)
	}
	return microCost{Ns: median(ns), Allocs: median(allocs)}
}

var noop sim.Handler = func() {}

// schedulerAt measures After+Step with depth far-future events parked in
// the heap, so sift cost at that depth is what is timed.
func schedulerAt(depth int) microCost {
	s := sim.NewScheduler()
	for i := 0; i < depth; i++ {
		s.After(time.Duration(i+1)*time.Hour, noop)
	}
	return micro(func() int {
		const n = 200_000
		for i := 0; i < n; i++ {
			s.After(time.Microsecond, noop)
			s.Step()
		}
		return n
	})
}

func schedulerCancel() microCost {
	s := sim.NewScheduler()
	for i := 0; i < 1000; i++ {
		s.After(time.Duration(i+1)*time.Hour, noop)
	}
	return micro(func() int {
		const n = 200_000
		for i := 0; i < n; i++ {
			ev := s.After(time.Microsecond, noop)
			ev.Cancel()
		}
		return n
	})
}

// crossDomainPost measures one cross-domain message end to end: Post into
// the outbox, the barrier merge, and the fire on the receiving domain.
func crossDomainPost() (microCost, error) {
	e := sim.NewEngine(2, sim.Millisecond)
	from, to := e.Domain(0), e.Domain(1)
	var runErr error
	c := micro(func() int {
		const n = 20_000
		base := e.Now() + 2*sim.Millisecond
		for i := 0; i < n; i++ {
			from.Post(to, base+sim.Time(i), noop)
		}
		if err := e.Run(base+sim.Time(n), 1); err != nil {
			runErr = err
		}
		return n
	})
	return c, runErr
}

func packetRoundtrip() (microCost, error) {
	src, dst := packet.MACFromUint64(1), packet.MACFromUint64(2)
	ip := packet.IPv4{Src: packet.AddrFrom4(10, 0, 0, 1), Dst: packet.AddrFrom4(10, 0, 0, 2), TTL: 64}
	tcp := packet.TCP{SrcPort: 40000, DstPort: 80, Seq: 1234, Flags: packet.FlagSYN, Window: 65535}
	payload := []byte("GET / HTTP/1.1\r\n\r\n")
	buf := make([]byte, 0, 128)
	p := packet.Acquire()
	defer p.Release()
	var decodeErr error
	c := micro(func() int {
		const n = 200_000
		for i := 0; i < n; i++ {
			buf = packet.AppendTCP(buf[:0], src, dst, ip, tcp, payload)
			if err := packet.DecodeInto(p, 0, buf); err != nil {
				decodeErr = err
			}
		}
		return n
	})
	return c, decodeErr
}

// hopPath is one frame NIC -> link -> switch -> link -> NIC with both MACs
// learned, the steady-state forwarding path.
func hopPath() (microCost, error) {
	net := netsim.New(sim.NewScheduler())
	sw := net.NewSwitch("sw0")
	cfg := netsim.LinkConfig{Delay: sim.Microsecond}
	na, nb := net.NewNode("a").AddNIC(), net.NewNode("b").AddNIC()
	net.Connect(na, sw.NewPort(), cfg)
	net.Connect(nb, sw.NewPort(), cfg)
	delivered := 0
	nb.SetHandler(func([]byte) { delivered++ })
	na.SetHandler(func([]byte) {})
	sched := na.Node().Scheduler()
	ethAB := packet.Ethernet{Dst: nb.MAC(), Src: na.MAC(), Type: packet.EtherTypeIPv4}
	ab := append(ethAB.Marshal(nil), make([]byte, 100)...)
	ethBA := packet.Ethernet{Dst: na.MAC(), Src: nb.MAC(), Type: packet.EtherTypeIPv4}
	na.Send(ab)
	nb.Send(ethBA.Marshal(nil))
	sched.Drain()
	sent := 0
	delivered = 0
	c := micro(func() int {
		const n = 50_000
		for i := 0; i < n; i++ {
			na.Send(ab)
			sched.Drain()
		}
		sent += n
		return n
	})
	if delivered != sent {
		return c, fmt.Errorf("hop path delivered %d of %d frames", delivered, sent)
	}
	return c, nil
}

// broadcastPerPort floods one broadcast frame through a 256-port switch;
// the cost is per egress port, what an ARP request costs at fleet scale.
func broadcastPerPort() (microCost, error) {
	const ports = 256
	net := netsim.New(sim.NewScheduler())
	sw := net.NewSwitch("sw0")
	cfg := netsim.LinkConfig{Delay: sim.Microsecond}
	delivered := 0
	var first *netsim.NIC
	for i := 0; i < ports; i++ {
		nic := net.NewNode(fmt.Sprintf("h%d", i)).AddNIC()
		net.Connect(nic, sw.NewPort(), cfg)
		nic.SetHandler(func([]byte) { delivered++ })
		if first == nil {
			first = nic
		}
	}
	sched := first.Node().Scheduler()
	eth := packet.Ethernet{Dst: packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, Src: first.MAC(), Type: packet.EtherTypeARP}
	frame := append(eth.Marshal(nil), make([]byte, 46)...)
	sent := 0
	c := micro(func() int {
		const n = 200
		for i := 0; i < n; i++ {
			first.Send(frame)
			sched.Drain()
		}
		sent += n
		return n * (ports - 1)
	})
	if want := sent * (ports - 1); delivered != want {
		return c, fmt.Errorf("broadcast delivered %d frames, want %d", delivered, want)
	}
	return c, nil
}

// hostPair is two netstack hosts on one switch, the smallest network the
// transport and application layers run on.
type hostPair struct {
	sched          *sim.Scheduler
	client, server *netstack.Host
	clientLink     *netsim.Link
}

func newHostPair(rateBps int64) hostPair {
	s := sim.NewScheduler()
	net := netsim.New(s)
	sw := net.NewSwitch("sw")
	subnet := packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 0), Bits: 24}
	var links []*netsim.Link
	mk := func(n uint32) *netstack.Host {
		nic := net.NewNode(fmt.Sprintf("h%d", n)).AddNIC()
		links = append(links, net.Connect(nic, sw.NewPort(), netsim.LinkConfig{RateBps: rateBps}))
		return netstack.NewHost(nic, netstack.HostConfig{Addr: subnet.Host(n), Subnet: subnet, Seed: int64(n)})
	}
	p := hostPair{sched: s, client: mk(1), server: mk(2)}
	p.clientLink = links[0]
	return p
}

// tcpBulk transfers 1 MiB per batch; the cost is per TCP segment crossing
// the client's link in either direction (data and ACKs).
func tcpBulk() (microCost, error) {
	const total = 1 << 20
	p := newHostPair(1_000_000_000)
	got := 0
	if _, err := p.server.ListenTCP(80, 0, func(c *netstack.Conn) {
		c.OnData = func(d []byte) { got += len(d) }
	}); err != nil {
		return microCost{}, err
	}
	payload := make([]byte, total)
	batches := 0
	c := micro(func() int {
		before := p.clientLink.Counters().TxFrames
		conn := p.client.DialTCP(p.server.Addr(), 80)
		conn.OnConnect = func() { conn.Send(payload); conn.Close() }
		p.sched.Drain()
		batches++
		return int(p.clientLink.Counters().TxFrames - before)
	})
	if got != batches*total {
		return c, fmt.Errorf("tcp bulk moved %d of %d bytes", got, batches*total)
	}
	return c, nil
}

// tcpConn is one short connection: handshake, a 64-byte request, a
// 512-byte reply, orderly close on both sides.
func tcpConn() (microCost, error) {
	p := newHostPair(1_000_000_000)
	reply := make([]byte, 512)
	if _, err := p.server.ListenTCP(80, 0, func(c *netstack.Conn) {
		c.OnData = func([]byte) { c.Send(reply); c.Close() }
	}); err != nil {
		return microCost{}, err
	}
	request := make([]byte, 64)
	done, dialed := 0, 0
	c := micro(func() int {
		const n = 2000
		for i := 0; i < n; i++ {
			conn := p.client.DialTCP(p.server.Addr(), 80)
			conn.OnConnect = func() { conn.Send(request) }
			conn.OnRemoteClose = func() { done++; conn.Close() }
			p.sched.Drain()
		}
		dialed += n
		return n
	})
	if done != dialed {
		return c, fmt.Errorf("tcp conn completed %d of %d exchanges", done, dialed)
	}
	return c, nil
}

func udpDatagram() (microCost, error) {
	p := newHostPair(1_000_000_000)
	got, sent := 0, 0
	if _, err := p.server.ListenUDP(9, func(packet.Addr, uint16, []byte) { got++ }); err != nil {
		return microCost{}, err
	}
	sock, err := p.client.ListenUDP(5000, nil)
	if err != nil {
		return microCost{}, err
	}
	data := make([]byte, 64)
	c := micro(func() int {
		const n = 32 * 1500
		for i := 0; i < n; i += 32 {
			for j := 0; j < 32; j++ {
				sock.SendTo(p.server.Addr(), 9, data)
			}
			p.sched.Drain()
		}
		sent += n
		return n
	})
	if got != sent {
		return c, fmt.Errorf("udp delivered %d of %d datagrams", got, sent)
	}
	return c, nil
}

// httpTxn runs the benign HTTP client against the HTTP server at a 10 ms
// think time; the cost is wall clock per completed transaction.
func httpTxn() (microCost, error) {
	p := newHostPair(100_000_000)
	srv := httpapp.NewServer(httpapp.ServerConfig{Seed: 1})
	if err := srv.Attach(p.server); err != nil {
		return microCost{}, err
	}
	cl := httpapp.NewClient(p.server.Addr(), 0, 10*time.Millisecond, 2)
	cl.Attach(p.client)
	var runErr error
	c := micro(func() int {
		_, before, _, _ := cl.Stats()
		if err := p.sched.RunFor(20 * time.Second); err != nil {
			runErr = err
		}
		_, after, _, _ := cl.Stats()
		return int(after - before)
	})
	if _, _, failed, _ := cl.Stats(); failed > 0 && runErr == nil {
		runErr = fmt.Errorf("http micro: %d transactions failed", failed)
	}
	return c, runErr
}

// floodPacket is the raw flood engine: one bot, one spoofed SYN flood.
func floodPacket() (microCost, error) {
	s := sim.NewScheduler()
	net := netsim.New(s)
	sw := net.NewSwitch("sw")
	subnet := packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 0), Bits: 16}
	mk := func(n uint32) *netstack.Host {
		nic := net.NewNode(fmt.Sprintf("h%d", n)).AddNIC()
		net.Connect(nic, sw.NewPort(), netsim.LinkConfig{RateBps: 10_000_000_000})
		return netstack.NewHost(nic, netstack.HostConfig{Addr: subnet.Host(n), Subnet: subnet, Seed: int64(n)})
	}
	bot, target := mk(10), mk(0x0101)
	spoof := packet.Prefix{Addr: packet.AddrFrom4(10, 0, 200, 0), Bits: 22}
	var runErr error
	c := micro(func() int {
		f := botnet.NewFlood(bot, sim.NewRNG(1), botnet.Command{
			Type: botnet.AttackSYN, Target: target.Addr(), Port: 80,
			Duration: 5 * time.Second, PPS: 10_000,
		}, spoof)
		f.Start()
		if err := s.RunFor(6 * time.Second); err != nil {
			runErr = err
		}
		return int(f.Sent())
	})
	return c, runErr
}

// scanProbe runs the scan-and-load pipeline over a /24 holding 16 hardened
// telnet hosts: most probes die in ARP, hits cost a connection and three
// refused logins — the mix the attacker meets in the testbed.
func scanProbe() (microCost, error) {
	s := sim.NewScheduler()
	net := netsim.New(s)
	sw := net.NewSwitch("sw")
	subnet := packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 0), Bits: 16}
	mk := func(a packet.Addr) *netstack.Host {
		nic := net.NewNode(a.String()).AddNIC()
		net.Connect(nic, sw.NewPort(), netsim.LinkConfig{})
		return netstack.NewHost(nic, netstack.HostConfig{Addr: a, Subnet: subnet, Seed: int64(a.Uint32())})
	}
	for i := 0; i < 16; i++ {
		if err := devices.NewTelnetService("", "").Attach(mk(packet.AddrFrom4(10, 0, 2, byte(10+i*8)))); err != nil {
			return microCost{}, err
		}
	}
	atk := botnet.NewAttacker(botnet.AttackerConfig{
		TargetRange:       packet.Prefix{Addr: packet.AddrFrom4(10, 0, 2, 0), Bits: 24},
		C2Addr:            packet.AddrFrom4(10, 0, 0, 2),
		MeanProbeInterval: time.Millisecond,
		Seed:              7,
	})
	atk.Attach(mk(packet.AddrFrom4(10, 0, 0, 3)))
	var runErr error
	c := micro(func() int {
		before, _, _, _ := atk.Stats()
		if err := s.RunFor(10 * time.Second); err != nil {
			runErr = err
		}
		after, _, _, _ := atk.Stats()
		return int(after - before)
	})
	return c, runErr
}

// containerRestart is one supervised crash-and-restart cycle of an IP
// camera: Stop tears down its telnet service and clients, the supervisor's
// timer fires, Start brings them back.
func containerRestart() (microCost, error) {
	s := sim.NewScheduler()
	net := netsim.New(s)
	rt := container.NewRuntime(net)
	subnet := packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 0), Bits: 24}
	c, err := rt.Create(container.Spec{
		Name: "dev", Image: "iot:micro",
		Host: netstack.HostConfig{Addr: subnet.Host(5), Subnet: subnet, Seed: 5},
		App: devices.New(devices.Config{
			Name: "dev", Profile: devices.DefaultFleet[0], TServer: subnet.Host(1),
			MeanThink: time.Hour, Seed: 5,
		}),
	}, net.NewSwitch("sw"), netsim.LinkConfig{})
	if err != nil {
		return microCost{}, err
	}
	c.Start()
	rt.Supervise(c, container.SupervisorConfig{
		Policy: container.RestartAlways,
		Delay:  func(int) time.Duration { return time.Millisecond },
	})
	var runErr error
	cycles := 0
	cost := micro(func() int {
		const n = 2000
		for i := 0; i < n; i++ {
			c.Kill()
			if err := s.RunFor(2 * time.Millisecond); err != nil {
				runErr = err
			}
		}
		cycles += n
		return n
	})
	if runErr == nil && c.Restarts() != cycles {
		runErr = fmt.Errorf("container restarted %d times in %d cycles", c.Restarts(), cycles)
	}
	return cost, runErr
}

// heapPerDevice is the live-heap cost of one started scale-fleet device.
func heapPerDevice(smoke bool) (float64, error) {
	c := scale50k(1, true)
	c.Cfg.NumDevices, c.Cfg.DeviceGroups, c.Cfg.Domains = 10_000, 39, 1
	if smoke {
		c.Cfg.NumDevices, c.Cfg.DeviceGroups = 1000, 4
	}
	before := liveHeapMB()
	tb, err := testbed.New(c.Cfg)
	if err != nil {
		return 0, err
	}
	tb.Start()
	after := liveHeapMB()
	runtime.KeepAlive(tb)
	return (after - before) * (1 << 20) / float64(c.Cfg.NumDevices), nil
}

// syntheticWindow fills out (1000 packets) with mixed SYN-flood and
// benign-looking traffic inside simulated second i, the extractor bench's
// window.
func syntheticWindow(out []features.Basic, i int) {
	base := sim.Time(i) * sim.Second
	for j := range out {
		b := features.Basic{
			Time:    base + sim.Time(j)*sim.Millisecond,
			Src:     packet.AddrFrom4(10, 0, byte(j%4), byte(j%200)),
			Dst:     packet.AddrFrom4(10, 0, 1, 1),
			Proto:   packet.ProtoTCP,
			SrcPort: uint16(30000 + j%512),
			DstPort: 80,
			Length:  60,
			Flags:   packet.FlagSYN,
			Seq:     uint32(j) * 1664525,
		}
		if j%3 == 0 {
			b.Flags, b.Length = packet.FlagACK|packet.FlagPSH, 600
		}
		out[j] = b
	}
}

func extractorWindow() microCost {
	e := features.NewExtractor(time.Second, func(*features.Window) {})
	window := make([]features.Basic, 1000)
	next := 0
	return micro(func() int {
		const n = 200
		for i := 0; i < n; i++ {
			syntheticWindow(window, next)
			for _, b := range window {
				e.Add(b)
			}
			e.Flush()
			next++
		}
		return n
	})
}

// syntheticFrames is the frame-level twin of syntheticWindow: n TCP frames
// a millisecond apart.
func syntheticFrames(n int) [][]byte {
	src, dst := packet.MACFromUint64(1), packet.MACFromUint64(2)
	out := make([][]byte, n)
	for j := range out {
		ip := packet.IPv4{Src: packet.AddrFrom4(10, 0, byte(j%4), byte(j%200)), Dst: packet.AddrFrom4(10, 0, 1, 1), TTL: 64}
		tcp := packet.TCP{SrcPort: uint16(30000 + j%512), DstPort: 80, Seq: uint32(j) * 1664525, Flags: packet.FlagSYN, Window: 512}
		out[j] = packet.BuildTCP(src, dst, ip, tcp, nil)
	}
	return out
}

// idsFeed is Unit.Feed without a model: decode is the caller's, windowing
// and statistics are the unit's, prediction is priced separately.
func idsFeed() microCost {
	unit := ids.New(ids.Config{Window: time.Second})
	frames := syntheticFrames(1000)
	p := packet.Acquire()
	defer p.Release()
	t := sim.Time(0)
	return micro(func() int {
		const n = 200_000
		for i := 0; i < n; i++ {
			t += sim.Millisecond
			if packet.DecodeInto(p, t, frames[i%len(frames)]) == nil {
				unit.Feed(p)
			}
		}
		return n
	})
}

// pcapRead writes a 100k-record capture into dir and reads it back through
// pcap.Reader over the bare file, as cmd/detect does.
func pcapRead(dir string) (microCost, error) {
	path := filepath.Join(dir, "micro.pcap")
	f, err := os.Create(path)
	if err != nil {
		return microCost{}, err
	}
	w, err := pcap.NewWriter(f, 0)
	if err != nil {
		f.Close()
		return microCost{}, err
	}
	frames := syntheticFrames(1000)
	const records = 100_000
	for i := 0; i < records; i++ {
		if err := w.WriteFrame(sim.Time(i)*sim.Millisecond, frames[i%len(frames)]); err != nil {
			f.Close()
			return microCost{}, err
		}
	}
	if err := f.Close(); err != nil {
		return microCost{}, err
	}
	defer os.Remove(path)
	var readErr error
	c := micro(func() int {
		f, err := os.Open(path)
		if err != nil {
			readErr = err
			return 0
		}
		defer f.Close()
		rd, err := pcap.NewReader(f)
		if err != nil {
			readErr = err
			return 0
		}
		n := 0
		for {
			if _, err := rd.Next(); err != nil {
				if !errors.Is(err, io.EOF) {
					readErr = err
				}
				break
			}
			n++
		}
		if n != records {
			readErr = fmt.Errorf("pcap micro read %d of %d records", n, records)
		}
		return n
	})
	return c, readErr
}

// firewallAdmit delivers frames to a NIC with the firewall attached. flows
// is how many distinct 5-tuples the frames cycle through: one flow always
// hits the verdict cache, a fresh flow per frame misses and inserts, and
// fresh flows against a cache far smaller than flows miss and evict.
func firewallAdmit(cacheSize, flows int) (microCost, error) {
	s := sim.NewScheduler()
	net := netsim.New(s)
	na, nb := net.NewNode("a").AddNIC(), net.NewNode("b").AddNIC()
	net.Connect(na, nb, netsim.LinkConfig{RateBps: 10_000_000_000, Delay: sim.Microsecond})
	fw := mitigation.NewFirewallConfig(s, nb, mitigation.FirewallConfig{CacheSize: cacheSize, SweepInterval: -1})
	got := 0
	nb.SetHandler(func([]byte) { got++ })
	ip := packet.IPv4{Dst: packet.AddrFrom4(10, 0, 1, 1), TTL: 64}
	buf := make([]byte, 0, 128)
	next, sent := 0, 0
	var runErr error
	c := micro(func() int {
		const n = 32 * 2000
		for i := 0; i < n; i += 32 {
			for j := 0; j < 32; j++ {
				k := uint32(next % flows)
				next++
				ip.Src = packet.AddrFromUint32(0x0a100000 + k>>4)
				buf = packet.AppendUDP(buf[:0], na.MAC(), nb.MAC(), ip, packet.UDP{SrcPort: uint16(1024 + k&15), DstPort: 9}, nil)
				na.Send(buf)
			}
			if err := s.RunFor(time.Millisecond); err != nil {
				runErr = err
			}
		}
		sent += n
		return n
	})
	if evaluated, _ := fw.Stats(); runErr == nil && (got != sent || evaluated != uint64(got)) {
		runErr = fmt.Errorf("firewall micro: sent %d, evaluated %d, delivered %d", sent, evaluated, got)
	}
	return c, runErr
}

func counterInc() microCost {
	ctr := telemetry.NewRegistry().NewCounter("bench_total")
	return micro(func() int {
		const n = 2_000_000
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
		return n
	})
}

func traceUnsampled() microCost {
	tr := trace.New(trace.Config{Seed: 1, SampleRate: 1e-18})
	f := trace.Flow{Src: 0x0a000003, Dst: 0x0a000101, SrcPort: 40000, DstPort: 80, Proto: 6}
	return micro(func() int {
		const n = 1_000_000
		for i := 0; i < n; i++ {
			oc := tr.Origin(0, f, "tcp-tx", "host")
			oc.Finish(0)
		}
		return n
	})
}

// traceSpan is the sampled path per span: an origin, a link hop and a
// terminal delivery, three spans a chain.
func traceSpan() microCost {
	tr := trace.New(trace.Config{SampleRate: 1, SpanCapacity: 1024})
	f := trace.Flow{Src: 0x0a000003, Dst: 0x0a000101, SrcPort: 40000, DstPort: 80, Proto: 6}
	return micro(func() int {
		const n = 100_000
		for i := 0; i < n; i++ {
			oc := tr.OriginKind(0, f, trace.KindAttack, "flood-syn", "bot")
			hop := oc.Start(0, "link", "a->b")
			oc.Finish(1)
			hop.Finish(2)
			del := hop.Start(2, "deliver", "srv")
			del.FinishTerminal(3)
		}
		return 3 * n
	})
}

// predictCost prices one model's Predict on standardized feature vectors
// built from the synthetic window.
func predictCost(m ml.Classifier, scaler *dataset.StandardScaler) microCost {
	var vectors [][]float64
	e := features.NewExtractor(time.Second, func(w *features.Window) { vectors = w.Vectors() })
	window := make([]features.Basic, 1000)
	syntheticWindow(window, 0)
	for _, b := range window {
		e.Add(b)
	}
	e.Flush()
	if scaler != nil {
		for i := range vectors {
			vectors[i] = scaler.Transformed(vectors[i])
		}
	}
	sink := 0
	c := micro(func() int {
		const n = 50_000
		for i := 0; i < n; i++ {
			sink += m.Predict(vectors[i%len(vectors)])
		}
		return n
	})
	runtime.KeepAlive(sink)
	return c
}

// trainCosts fits each detector alone, serially, on the corpus the seed
// generates — experiments.TrainModels' data preparation and model
// configurations, timed one model at a time (TrainModels itself fits the
// three concurrently, so its wall clock cannot be split from outside).
func trainCosts(seed int64, smoke bool, into map[string]float64) error {
	sc := trainingScenario(seed, smoke)
	ds, err := sc.GenerateDataset()
	if err != nil {
		return err
	}
	rng := sim.Substream(sc.Seed, "experiments/train")
	work := ds.Subsample(sc.MaxTrainSamples, rng)
	work.Shuffle(rng)
	train, _ := work.Split(0.8)
	off := features.NumBasic()
	stats := make([][]float64, train.Len())
	ys := make([]int, train.Len())
	for i := range train.Samples {
		stats[i], ys[i] = train.Samples[i].X[off:], train.Samples[i].Y
	}
	// The forest reads raw window statistics; K-Means and the CNN read the
	// standardized full vector, so standardizing waits until the forest
	// (first in the list) is done with the shared sample storage.
	var xs [][]float64
	standardize := func() {
		if xs == nil {
			dataset.FitStandard(train).Apply(train)
			xs, _ = train.XY()
		}
	}
	fits := []struct {
		name string
		fit  func() error
	}{
		{"rf", func() error {
			_, err := forest.Train(forest.Config{Trees: 60, MaxDepth: 18, MinSamplesLeaf: 1, Seed: sc.Seed + 11}, stats, ys)
			return err
		}},
		{"kmeans", func() error {
			standardize()
			_, err := kmeans.Train(kmeans.Config{InitClusters: 24, Gamma: 1.5, Seed: sc.Seed + 12}, xs, ys)
			return err
		}},
		{"cnn", func() error {
			standardize()
			_, _, err := cnn.Train(cnn.Config{
				Conv1Filters: 8, Conv2Filters: 16, Hidden: 48,
				Epochs: 6, BatchSize: 64, LearningRate: 0.01, Seed: sc.Seed + 13,
			}, xs, ys)
			return err
		}},
	}
	for _, f := range fits {
		start := time.Now()
		if err := f.fit(); err != nil {
			return fmt.Errorf("train %s: %w", f.name, err)
		}
		into["ml.train_s."+f.name] = time.Since(start).Seconds()
	}
	into["ml.train_samples"] = float64(train.Len())
	return nil
}

// runLayers is the layers child: every micro-cost, keyed by metric name
// (allocations under "<name>#allocs").
func runLayers(o childOptions) (*repResult, error) {
	res := &repResult{Workload: o.workload, Counters: map[string]float64{}}
	k := res.Counters
	put := func(name string, c microCost, err error) {
		if err != nil {
			res.check("micro:"+name, false, "%v", err)
			return
		}
		k[name], k[name+"#allocs"] = c.Ns, c.Allocs
	}
	us := func(c microCost) microCost { return microCost{Ns: c.Ns / 1e3, Allocs: c.Allocs} }

	put("sim.sched_ns_per_event.d1", schedulerAt(0), nil)
	put("sim.sched_ns_per_event.d1k", schedulerAt(1000), nil)
	put("sim.sched_ns_per_event.d100k", schedulerAt(100_000), nil)
	put("sim.cancel_ns", schedulerCancel(), nil)
	c, err := crossDomainPost()
	put("sim.xdomain_post_ns", c, err)
	c, err = packetRoundtrip()
	put("packet.build_decode_ns", c, err)
	k["packet.allocs_per_op"] = c.Allocs
	c, err = hopPath()
	put("netsim.hop_ns_per_frame", c, err)
	k["netsim.hop_allocs"] = c.Allocs
	c, err = broadcastPerPort()
	put("netsim.broadcast_ns_per_port", c, err)
	c, err = tcpBulk()
	put("netstack.tcp_ns_per_segment", c, err)
	c, err = tcpConn()
	put("netstack.tcp_conn_ns", c, err)
	c, err = udpDatagram()
	put("netstack.udp_ns_per_datagram", c, err)
	c, err = httpTxn()
	put("apps.http_txn_us", us(c), err)
	c, err = floodPacket()
	put("botnet.flood_ns_per_packet", c, err)
	c, err = scanProbe()
	put("botnet.scan_probe_ns", c, err)
	c, err = containerRestart()
	put("container.restart_us", us(c), err)
	if b, err := heapPerDevice(o.smoke); err != nil {
		res.check("micro:testbed.heap_bytes_per_device", false, "%v", err)
	} else {
		k["testbed.heap_bytes_per_device"] = b
	}

	c = extractorWindow()
	put("features.extract_us_per_window", us(c), nil)
	k["features.ns_per_packet"], k["features.allocs_per_window"] = c.Ns/1000, c.Allocs
	put("ids.feed_ns_per_packet", idsFeed(), nil)
	c, err = pcapRead(o.dir)
	put("pcap.read_ns_per_record", c, err)
	c, err = firewallAdmit(1024, 1)
	put("mitigation.admit_ns.hit", c, err)
	c, err = firewallAdmit(1<<20, 1<<30)
	put("mitigation.admit_ns.miss", c, err)
	c, err = firewallAdmit(256, 1<<30)
	put("mitigation.admit_ns.evict", c, err)
	put("telemetry.counter_inc_ns", counterInc(), nil)
	put("telemetry.trace_unsampled_ns", traceUnsampled(), nil)
	put("telemetry.trace_span_ns", traceSpan(), nil)

	var bundles []modelio.Bundle
	c = micro(func() int {
		if bundles, err = loadBundles(o.dir); err != nil {
			return 0
		}
		return 1
	})
	if err != nil {
		return nil, err
	}
	k["modelio.load_ms"] = c.Ns / 1e6
	for _, b := range bundles {
		put("ml.predict_ns."+b.Model.Name(), predictCost(b.Model, b.Scaler), nil)
	}
	if err := trainCosts(o.seed, o.smoke, k); err != nil {
		return nil, err
	}
	res.PeakRSSMB = peakRSSMB()
	return res, nil
}
