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

// parked is what waits on a neighbour entry for its MAC: a frame built with
// a blank Ethernet destination, or a ResolveMAC caller (cb). A frame's tc is
// its origin span; it stays open across the ARP wait so the trace charges
// resolution delay to the origin hop.
type parked struct {
	frame []byte
	tc    trace.Context
	cb    func(mac packet.MAC, ok bool)
}

type arpEntry struct {
	mac     packet.MAC
	pending []parked
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
	nic.SetARPInert(h.arpInert)
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
	h.settle(e)
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

// SendFrame is the one IPv4 way out of the host. frame is built with a
// blank Ethernet destination; SendFrame writes the next hop's MAC into it
// and hands it to the NIC, parking it on the neighbour entry while ARP
// resolves that MAC. tc is the packet's origin span: it closes at NIC
// hand-off, so it covers any ARP wait, or as DropNoRoute, the frame
// released, when hop is off-subnet or ARP gives up. The frame is the
// host's from the call on.
func (h *Host) SendFrame(hop packet.Addr, frame []byte, tc trace.Context) {
	if !h.routable(hop) {
		packet.ReleaseFrame(frame)
		tc.Drop(h.sched.Now(), trace.DropNoRoute)
		return
	}
	if e := h.arp[hop]; e != nil && e.mac != (packet.MAC{}) {
		h.transmit(e.mac, frame, tc)
		return
	}
	h.park(hop, parked{frame: frame, tc: tc})
}

// transmit addresses frame to mac and hands it to the NIC.
func (h *Host) transmit(mac packet.MAC, frame []byte, tc trace.Context) {
	copy(frame, mac[:])
	h.nic.SendCtx(frame, tc)
	tc.Finish(h.sched.Now())
}

// park queues p on hop's neighbour entry and starts ARP unless a
// resolution is already in flight.
func (h *Host) park(hop packet.Addr, p parked) {
	e := h.arp[hop]
	if e == nil {
		e = &arpEntry{}
		h.arpMap()[hop] = e
	}
	e.pending = append(e.pending, p)
	if !e.waiting {
		e.waiting = true
		e.tries = 0
		h.sendARPRequest(hop, e)
	}
}

// settle ends a neighbour entry's wait: resolved when e.mac is set, given
// up otherwise. It hands what was parked over in arrival order: a resolved
// entry sends each frame with its MAC, one that gave up releases each as
// DropNoRoute, and every ResolveMAC caller hears the outcome once. An entry
// that is not waiting has nothing parked.
func (h *Host) settle(e *arpEntry) {
	if !e.waiting {
		return
	}
	e.waiting = false
	pending := e.pending
	e.pending = nil
	ok := e.mac != (packet.MAC{})
	for _, p := range pending {
		switch {
		case p.cb != nil:
			p.cb(e.mac, ok)
		case ok:
			h.transmit(e.mac, p.frame, p.tc)
		default:
			packet.ReleaseFrame(p.frame)
			p.tc.Drop(h.sched.Now(), trace.DropNoRoute)
		}
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
		switch {
		case !e.waiting:
		case e.tries >= arpMaxTries:
			h.settle(e)
		default:
			h.sendARPRequest(target, e)
		}
	})
}

// ResolveMAC reports ip's MAC to cb: at once when it is known or ip is
// off-subnet (ok false), otherwise when ARP settles ip's entry, in turn
// with the frames parked on it. The flood engines use it once per target
// to set their pacing phase.
func (h *Host) ResolveMAC(ip packet.Addr, cb func(mac packet.MAC, ok bool)) {
	if !h.routable(ip) {
		cb(packet.MAC{}, false)
		return
	}
	if e := h.arp[ip]; e != nil && e.mac != (packet.MAC{}) {
		cb(e.mac, true)
		return
	}
	h.park(ip, parked{cb: cb})
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
		span.Drop(now, trace.DropBadDst)
		return
	}
	switch eth.Type {
	case packet.EtherTypeARP:
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
			h.settle(e)
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

// arpInert reports whether handleARP, given the broadcast request a, would
// change nothing: the request asks for another address, and the host holds
// no entry for the sender, or one already bound to the sender's MAC with no
// frame waiting on it.
func (h *Host) arpInert(a packet.ARP) bool {
	if a.TargetIP == h.cfg.Addr {
		return false
	}
	e := h.arp[a.SenderIP]
	return e == nil || e.mac == a.SenderMAC && !e.waiting
}

func (h *Host) handleIPv4(b []byte, tc trace.Context) {
	now := h.sched.Now()
	ip, payload, err := packet.UnmarshalIPv4(b)
	if err != nil {
		tc.Drop(now, trace.DropMalformed)
		return
	}
	if ip.Dst != h.cfg.Addr && ip.Dst != (packet.Addr{255, 255, 255, 255}) {
		tc.Drop(now, trace.DropBadDst)
		return
	}
	switch ip.Proto {
	case packet.ProtoTCP:
		h.handleTCP(ip, payload, tc)
	case packet.ProtoUDP:
		h.handleUDP(ip, payload, tc)
	default:
		tc.Drop(now, trace.DropNoSocket)
	}
}
