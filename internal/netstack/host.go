// Package netstack implements the userspace network stack that runs inside
// each simulated container: ARP, IPv4, UDP sockets and an event-driven TCP
// with three-way handshake, sliding-window data transfer, retransmission and
// connection teardown. The paper's testbed relies on the Linux stack inside
// Docker containers; the IDS features (SYN-without-ACK ratio, short-lived
// connections, sequence-number variance) only make sense if handshakes and
// retransmissions genuinely happen on the wire, so this package provides
// them.
package netstack

import (
	"bytes"
	"sync"
	"time"

	"ddoshield/internal/netsim"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/telemetry/trace"
)

// HostConfig configures a host's single-homed IPv4 stack.
type HostConfig struct {
	// Addr is the host's IPv4 address.
	Addr packet.Addr
	// Subnet is the directly connected prefix. A host has no gateway:
	// off-subnet traffic is unroutable.
	Subnet packet.Prefix
	// Seed drives the stack's RNG (ISNs, ephemeral ports, IP IDs).
	Seed int64
}

// ipTTL is the initial TTL of every packet a host generates.
const ipTTL = 64

type pendingFrame struct {
	build func(dstMAC packet.MAC) []byte
	// tc is the queued packet's origin span; it stays open across the ARP
	// wait so the trace charges resolution delay to the origin hop.
	tc trace.Context
}

type arpEntry struct {
	mac     packet.MAC
	pending []pendingFrame
	tries   int
	waiting bool
}

// Host is one endpoint's network stack bound to a NIC.
//
// The stack is lazy: the ARP/UDP/listener/connection tables, the RNG and
// the cached name string and the send-buffer free list are all nil until
// first use, so an idle device — one that never sends or binds a socket —
// costs only the struct itself. Reads tolerate nil maps (a nil map lookup
// is legal Go); every write goes through an ensure-accessor that takes
// storage from a shared pool, and ReleaseIdle returns empty tables to the
// pools on churn-down.
type Host struct {
	nic   *netsim.NIC
	sched *sim.Scheduler
	cfg   HostConfig
	rng   *sim.RNG // lazy: see rand()
	name  string   // lazy cached Addr string: see Name()

	arp       map[packet.Addr]*arpEntry
	udpSocks  map[uint16]*UDPSocket
	listeners map[uint16]*Listener
	conns     map[connKey]*Conn
	ipID      uint16
	ephemeral uint16

	// bufs holds the send buffers connections have returned: see buffers.go.
	bufs *bufferList

	// Counters for diagnostics and tests.
	rxIPv4    uint64
	rxARP     uint64
	rxBadDst  uint64
	txIPv4    uint64
	arpFailed uint64
}

// NewHost binds a stack to nic. The NIC's receive handler is taken over.
// Tables, RNG and name are materialized on first use, not here — at fleet
// scale most hosts never touch them.
func NewHost(nic *netsim.NIC, cfg HostConfig) *Host {
	h := &Host{
		nic:       nic,
		sched:     nic.Node().Scheduler(),
		cfg:       cfg,
		ephemeral: 32768,
	}
	nic.SetHandlerCtx(h.receive)
	return h
}

// Table storage pools shared across the fleet: hosts borrow map storage on
// first write and return it (empty) on ReleaseIdle, so a churn-heavy
// campaign recycles a working set of tables instead of holding one of each
// per device.
var (
	arpMapPool      = sync.Pool{New: func() any { return make(map[packet.Addr]*arpEntry) }}
	listenerMapPool = sync.Pool{New: func() any { return make(map[uint16]*Listener) }}
	connMapPool     = sync.Pool{New: func() any { return make(map[connKey]*Conn) }}
)

// arpMap (and its siblings below) materialize the corresponding table
// before a write; reads go straight to the possibly-nil field.
func (h *Host) arpMap() map[packet.Addr]*arpEntry {
	if h.arp == nil {
		h.arp = arpMapPool.Get().(map[packet.Addr]*arpEntry)
	}
	return h.arp
}

func (h *Host) listenerMap() map[uint16]*Listener {
	if h.listeners == nil {
		h.listeners = listenerMapPool.Get().(map[uint16]*Listener)
	}
	return h.listeners
}

func (h *Host) connMap() map[connKey]*Conn {
	if h.conns == nil {
		h.conns = connMapPool.Get().(map[connKey]*Conn)
	}
	return h.conns
}

// rand returns the host's RNG, deriving it on first use. The stream is
// keyed by (seed, address) only, so the draw sequence is identical whether
// the RNG is built eagerly at NewHost or lazily at the first ISN.
func (h *Host) rand() *sim.RNG {
	if h.rng == nil {
		h.rng = sim.Substream(h.cfg.Seed, "netstack/"+h.Name())
	}
	return h.rng
}

// ReleaseIdle returns table storage that holds no live state to the shared
// pools. Called on container halt/churn-down; behavior-preserving because
// only *empty* tables are released — a populated ARP cache persists across
// restarts exactly as it always did.
func (h *Host) ReleaseIdle() {
	if h.arp != nil && len(h.arp) == 0 {
		arpMapPool.Put(h.arp)
		h.arp = nil
	}
	if h.listeners != nil && len(h.listeners) == 0 {
		listenerMapPool.Put(h.listeners)
		h.listeners = nil
	}
	if h.conns != nil && len(h.conns) == 0 {
		connMapPool.Put(h.conns)
		h.conns = nil
	}
	// Free send buffers are a cache, never state: a halted device keeps none.
	h.bufs = nil
}

// AddStaticARP installs a permanent neighbor entry, bypassing resolution.
// Large fleets use it to pre-bind the pairs that will talk (device to its
// edge server, scanner to its target plane): on a fabric that floods it, one
// ARP request costs a delivery per host, and a request the fabric can direct
// (netsim.Network.SetARPDirectory) still costs the round trip and a 100 ms
// retry timer that a pair known in advance need not pay.
func (h *Host) AddStaticARP(ip packet.Addr, mac packet.MAC) {
	e := h.arp[ip]
	if e == nil {
		e = &arpEntry{}
		h.arpMap()[ip] = e
	}
	e.mac = mac
	if e.waiting {
		e.waiting = false
		pending := e.pending
		e.pending = nil
		for _, p := range pending {
			h.txIPv4++
			h.nic.SendCtx(p.build(mac), p.tc)
			p.tc.Finish(h.sched.Now())
		}
	}
}

// emitTCP records a transport-layer trace event in the network's flight
// recorder (a no-op when no recorder is attached). The recorder is looked
// up per call so instrumentation attached after NewHost still takes
// effect; the chain is a few pointer loads and allocation-free.
func (h *Host) emitTCP(name string, value int64) {
	h.nic.Node().Network().Recorder().Emit(h.sched.Now(), telemetry.CatTCP, name, h.Name(), value)
}

// Addr reports the host's IPv4 address.
func (h *Host) Addr() packet.Addr { return h.cfg.Addr }

// Name reports the host's address string — the actor label its spans and
// trace events carry. Rendered once on first use and cached so the hot
// paths stay alloc-free.
func (h *Host) Name() string {
	if h.name == "" {
		h.name = h.cfg.Addr.String()
	}
	return h.name
}

// Tracer resolves the network's packet tracer at call time (nil when
// tracing is off; the trace API is nil-receiver safe).
func (h *Host) Tracer() *trace.Tracer { return h.nic.Node().Network().Tracer() }

// traceOrigin opens an origin span for a locally generated packet when its
// flow is sampled; unsampled flows get the zero Context at zero cost.
func (h *Host) traceOrigin(name string, dst packet.Addr, srcPort, dstPort uint16, proto uint8) trace.Context {
	tr := h.Tracer()
	if tr == nil {
		return trace.Context{}
	}
	f := trace.Flow{
		Src: h.cfg.Addr.Uint32(), Dst: dst.Uint32(),
		SrcPort: srcPort, DstPort: dstPort, Proto: proto,
	}
	return tr.Origin(h.sched.Now(), f, name, h.Name())
}

// MAC reports the bound NIC's hardware address.
func (h *Host) MAC() packet.MAC { return h.nic.MAC() }

// NIC returns the bound NIC.
func (h *Host) NIC() *netsim.NIC { return h.nic }

// Scheduler returns the simulation scheduler the stack runs on.
func (h *Host) Scheduler() *sim.Scheduler { return h.sched }

// Now reports the current simulated time.
func (h *Host) Now() sim.Time { return h.sched.Now() }

// nextIPID returns a fresh IPv4 identification value.
func (h *Host) nextIPID() uint16 {
	h.ipID++
	return h.ipID
}

// nextEphemeralPort returns the next client port in the ephemeral range.
func (h *Host) nextEphemeralPort() uint16 {
	for i := 0; i < 65536; i++ {
		h.ephemeral++
		if h.ephemeral < 32768 {
			h.ephemeral = 32768
		}
		p := h.ephemeral
		if _, used := h.udpSocks[p]; used {
			continue
		}
		if _, used := h.listeners[p]; used {
			continue
		}
		return p
	}
	return 0
}

// routable reports whether dst is on the directly connected subnet (or is
// the limited broadcast address): the only destinations a host reaches,
// each L2-addressed to itself.
func (h *Host) routable(dst packet.Addr) bool {
	return h.cfg.Subnet.Contains(dst) || dst == (packet.Addr{255, 255, 255, 255})
}

const (
	arpRetryInterval = 100 * time.Millisecond
	arpMaxTries      = 3
)

// sendIP resolves the next hop's MAC (via ARP, queueing the frame while
// resolution is in flight) and transmits the frame built by build.
func (h *Host) sendIP(dst packet.Addr, build func(dstMAC packet.MAC) []byte) {
	h.sendIPCtx(dst, trace.Context{}, build)
}

// sendIPCtx is sendIP carrying the packet's origin span: the span closes at
// NIC hand-off (so it covers any ARP wait) or terminates as DropNoRoute.
func (h *Host) sendIPCtx(dst packet.Addr, tc trace.Context, build func(dstMAC packet.MAC) []byte) {
	if !h.routable(dst) {
		// Unroutable: silently dropped, as a real stack would.
		tc.Drop(h.sched.Now(), trace.DropNoRoute)
		return
	}
	h.sendIPVia(dst, tc, build)
}

// sendTCP transmits one TCP segment. With the next hop's MAC in the ARP
// cache — every segment but a flow's first — the frame is built and handed
// to the NIC right here. Only a segment that has to wait for resolution pays
// for a builder closure, and for a private copy of its payload: the bytes
// may sit in a send buffer that is recycled before ARP answers.
func (h *Host) sendTCP(ip packet.IPv4, tcp packet.TCP, payload []byte, tc trace.Context) {
	if !h.routable(ip.Dst) {
		tc.Drop(h.sched.Now(), trace.DropNoRoute)
		return
	}
	if e := h.arp[ip.Dst]; e != nil && e.mac != (packet.MAC{}) {
		h.txIPv4++
		h.nic.SendCtx(packet.BuildTCP(h.MAC(), e.mac, ip, tcp, payload), tc)
		tc.Finish(h.sched.Now())
		return
	}
	held := bytes.Clone(payload)
	h.sendIPVia(ip.Dst, tc, func(dstMAC packet.MAC) []byte {
		return packet.BuildTCP(h.MAC(), dstMAC, ip, tcp, held)
	})
}

// sendIPVia transmits to an on-subnet next hop.
func (h *Host) sendIPVia(hop packet.Addr, tc trace.Context, build func(dstMAC packet.MAC) []byte) {
	e := h.arp[hop]
	if e != nil && e.mac != (packet.MAC{}) {
		h.txIPv4++
		h.nic.SendCtx(build(e.mac), tc)
		tc.Finish(h.sched.Now())
		return
	}
	if e == nil {
		e = &arpEntry{}
		h.arpMap()[hop] = e
	}
	e.pending = append(e.pending, pendingFrame{build: build, tc: tc})
	if !e.waiting {
		e.waiting = true
		e.tries = 0
		h.sendARPRequest(hop, e)
	}
}

func (h *Host) sendARPRequest(target packet.Addr, e *arpEntry) {
	e.tries++
	req := packet.ARP{
		Op:        packet.ARPRequest,
		SenderMAC: h.MAC(),
		SenderIP:  h.cfg.Addr,
		TargetIP:  target,
	}
	h.nic.Send(packet.BuildARP(h.MAC(), packet.BroadcastMAC, req))
	h.sched.After(arpRetryInterval, func() {
		if e.mac != (packet.MAC{}) || !e.waiting {
			return
		}
		if e.tries >= arpMaxTries {
			e.waiting = false
			h.arpFailed += uint64(len(e.pending))
			for _, p := range e.pending {
				p.tc.Drop(h.sched.Now(), trace.DropNoRoute)
			}
			e.pending = nil
			return
		}
		h.sendARPRequest(target, e)
	})
}

// ResolveMAC performs ARP resolution for ip and invokes cb with the result.
// The flood engines use it once per target, then forge frames directly.
func (h *Host) ResolveMAC(ip packet.Addr, cb func(mac packet.MAC, ok bool)) {
	if !h.routable(ip) {
		cb(packet.MAC{}, false)
		return
	}
	if e := h.arp[ip]; e != nil && e.mac != (packet.MAC{}) {
		cb(e.mac, true)
		return
	}
	// Piggyback on the pending-frame machinery with a zero-length frame
	// builder that just reports the resolution.
	h.sendIP(ip, func(mac packet.MAC) []byte {
		cb(mac, true)
		return nil
	})
	// Failure notification after the retries would have elapsed.
	h.sched.After(time.Duration(arpMaxTries+1)*arpRetryInterval, func() {
		if e := h.arp[ip]; e == nil || e.mac == (packet.MAC{}) {
			cb(packet.MAC{}, false)
		}
	})
}

// SendRawCtx transmits a pre-built frame verbatim, carrying a trace context
// opened by the caller: the raw-socket analog the Mirai attack engines use
// (they originate spans themselves, since their spoofed flows never pass
// through sendIP). Nil and runt frames are dropped. The frame is the
// network's from here on, as with netsim.NIC.SendCtx.
func (h *Host) SendRawCtx(frame []byte, tc trace.Context) {
	if len(frame) < packet.EthernetHeaderLen {
		tc.Drop(h.sched.Now(), trace.DropMalformed)
		packet.ReleaseFrame(frame)
		return
	}
	h.nic.SendCtx(frame, tc)
}

// receive is the NIC ingress path. A sampled frame's chain continues in a
// "deliver" span covering dissection and socket dispatch; the span ends
// terminally at a socket, or as a cause-tagged drop.
func (h *Host) receive(raw []byte, tc trace.Context) {
	now := h.sched.Now()
	span := tc.Start(now, "deliver", h.Name())
	eth, rest, err := packet.UnmarshalEthernet(raw)
	if err != nil {
		span.Drop(now, trace.DropMalformed)
		return
	}
	if eth.Dst != h.MAC() && !eth.Dst.IsBroadcast() {
		h.rxBadDst++
		span.Drop(now, trace.DropBadDst)
		return
	}
	switch eth.Type {
	case packet.EtherTypeARP:
		h.rxARP++
		span.Finish(now)
		h.handleARP(rest)
	case packet.EtherTypeIPv4:
		h.handleIPv4(rest, span)
	default:
		span.Drop(now, trace.DropNoSocket)
	}
}

func (h *Host) handleARP(b []byte) {
	a, err := packet.UnmarshalARP(b)
	if err != nil {
		return
	}
	// Learn the sender's mapping the way a real stack does: refresh an
	// entry we already hold, or create one when the packet actually
	// concerns us (a reply we solicited, or a request probing our own
	// address — we are about to answer, so the requester will talk to us).
	// Broadcast requests aimed at third parties update nothing; without
	// this restriction every flooded ARP request would materialize a cache
	// entry on all N hosts of the segment, defeating the idle flyweight at
	// fleet scale.
	if !a.SenderIP.IsZero() {
		e := h.arp[a.SenderIP]
		if e == nil && (a.Op == packet.ARPReply || a.TargetIP == h.cfg.Addr) {
			e = &arpEntry{}
			h.arpMap()[a.SenderIP] = e
		}
		if e != nil {
			e.mac = a.SenderMAC
			if e.waiting {
				e.waiting = false
				pending := e.pending
				e.pending = nil
				for _, p := range pending {
					if f := p.build(e.mac); f != nil {
						h.txIPv4++
						h.nic.SendCtx(f, p.tc)
					}
					p.tc.Finish(h.sched.Now())
				}
			}
		}
	}
	if a.Op == packet.ARPRequest && a.TargetIP == h.cfg.Addr {
		reply := packet.ARP{
			Op:        packet.ARPReply,
			SenderMAC: h.MAC(),
			SenderIP:  h.cfg.Addr,
			TargetMAC: a.SenderMAC,
			TargetIP:  a.SenderIP,
		}
		h.nic.Send(packet.BuildARP(h.MAC(), a.SenderMAC, reply))
	}
}

func (h *Host) handleIPv4(b []byte, tc trace.Context) {
	now := h.sched.Now()
	ip, payload, err := packet.UnmarshalIPv4(b)
	if err != nil {
		tc.Drop(now, trace.DropMalformed)
		return
	}
	if ip.Dst != h.cfg.Addr && ip.Dst != (packet.Addr{255, 255, 255, 255}) {
		h.rxBadDst++
		tc.Drop(now, trace.DropBadDst)
		return
	}
	h.rxIPv4++
	switch ip.Proto {
	case packet.ProtoTCP:
		h.handleTCP(ip, payload, tc)
	case packet.ProtoUDP:
		h.handleUDP(ip, payload, tc)
	default:
		tc.Drop(now, trace.DropNoSocket)
	}
}

// Stats reports receive-path counters: IPv4 packets accepted, ARP packets
// seen, frames addressed elsewhere, IPv4 packets sent, and IP packets whose
// ARP resolution failed.
func (h *Host) Stats() (rxIPv4, rxARP, rxBadDst, txIPv4, arpFailed uint64) {
	return h.rxIPv4, h.rxARP, h.rxBadDst, h.txIPv4, h.arpFailed
}
