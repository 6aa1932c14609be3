// Package netsim is the packet-level network simulator that replaces NS-3 in
// this reproduction of DDoShield-IoT. It models nodes with NICs, full-duplex
// links with finite bandwidth, propagation delay and drop-tail queues, and a
// learning Ethernet switch (the CSMA-segment analog the paper's topology
// uses to join the Devs, the Attacker, the TServer and the IDS).
//
// All state advances on a single sim.Scheduler — or, when the network is
// built with NewPartitioned, on one scheduler per PDES domain with
// cross-domain frames carried as conservative lookahead messages. Either
// way the simulation is deterministic for a fixed seed and topology.
package netsim

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/telemetry/trace"
)

// Port is anything that can terminate a link: a host NIC or a switch port.
type Port interface {
	// receive is invoked by the link when a frame finishes arriving; tc is
	// the frame's trace context (zero for unsampled frames).
	receive(raw []byte, tc trace.Context)
	// scheduler is the event queue the port's owner executes on (the
	// domain scheduler in partitioned networks, the global one otherwise).
	scheduler() *sim.Scheduler
	// domain is the owner's PDES domain (nil in serial networks).
	domain() *sim.Domain
	// String identifies the port for diagnostics.
	String() string
}

// Tap observes frames on a link or a switch. Taps run at frame-delivery
// time with the simulated timestamp, exactly like a passive capture
// interface, in the order they were added. tc is the frame's trace context
// (zero when the frame is unsampled), so an observer can extend a sampled
// packet's causal chain. The pcap writer and the IDS monitor are both taps;
// a tap must not modify the frame, and must not keep raw (or any slice of
// it) past its return: the buffer is recycled once the frame's last receiver
// is done with it (see NIC.SendCtx). A tap that needs the bytes later copies
// them.
type Tap func(t sim.Time, raw []byte, tc trace.Context)

// Network owns the simulated topology: the scheduler, every node, link and
// switch, and the MAC address allocator.
type Network struct {
	sched    *sim.Scheduler
	engine   *sim.Engine // nil for serial networks
	nodes    []*Node
	links    []*Link
	switches []*Switch
	macSeq   uint64
	// linkSeq allocates link creation indices. It runs ahead of len(links)
	// while stages hold reserved ranges; outside staged construction the two
	// always agree.
	linkSeq int
	nameSet map[string]bool

	// reg/rec are the attached telemetry plane (both may be nil: every
	// instrument works standalone and Recorder.Emit is nil-safe). rec is
	// held for the layers above, which emit through Recorder.
	reg *telemetry.Registry
	rec *telemetry.Recorder
	// tracer drives causal packet tracing; nil (or a zero sample rate)
	// keeps every frame on the zero-Context fast path.
	tracer *trace.Tracer

	// arpDir maps every address on the network to the MAC that owns it; nil
	// unless SetARPDirectory installed one. Written before the simulation
	// runs and only read afterwards, so every domain's switches share it
	// without a lock.
	arpDir map[packet.Addr]packet.MAC

	// seed roots the per-entity RNG streams (per-link, per-direction loss
	// draws) derived at Connect time. See SetSeed.
	seed int64

	// metricLimit caps how many entities (NICs, links, switches) register
	// per-entity metric series; 0 is unlimited. metricEntities counts the
	// ones that did. See SetMetricEntityLimit.
	metricLimit    int
	metricEntities int

	// ledgers is the frame account, one share per PDES domain (one for a
	// serial network): see Ledger.
	ledgers []frameLedger
}

// New creates an empty network driven by sched.
func New(sched *sim.Scheduler) *Network {
	return &Network{sched: sched, nameSet: make(map[string]bool), ledgers: make([]frameLedger, 1)}
}

// NewPartitioned creates an empty network driven by a conservative PDES
// engine. Nodes and switches are placed with NewNodeInDomain /
// NewSwitchInDomain; everything defaults to domain 0. After wiring the
// topology, derive the engine lookahead from MinCrossDomainDelay.
func NewPartitioned(e *sim.Engine) *Network {
	return &Network{sched: e.Domain(0).Scheduler(), engine: e, nameSet: make(map[string]bool),
		ledgers: make([]frameLedger, e.NumDomains())}
}

// SetSeed roots the network's derived RNG streams. Links created after the
// call whose LinkConfig enables random loss draw from streams keyed by
// (seed, link index, direction) — independent of
// global event interleaving, so the same topology produces the same loss
// pattern under the serial scheduler and the partitioned engine alike.
func (n *Network) SetSeed(seed int64) { n.seed = seed }

// domainFor maps a domain index to the engine's domain, clamping out-of-
// range indices; serial networks always yield (nil, n.sched).
func (n *Network) domainFor(idx int) (*sim.Domain, *sim.Scheduler) {
	if n.engine == nil {
		return nil, n.sched
	}
	if idx < 0 || idx >= n.engine.NumDomains() {
		idx = 0
	}
	d := n.engine.Domain(idx)
	return d, d.Scheduler()
}

// MinCrossDomainDelay reports the smallest propagation delay over links
// whose endpoints live in different domains — the conservative lookahead
// bound. ok is false when no link crosses a domain boundary (then any
// positive lookahead is safe).
func (n *Network) MinCrossDomainDelay() (sim.Time, bool) {
	var min sim.Time
	found := false
	for _, l := range n.links {
		d := &l.dirs[0]
		if d.fromDom != nil && d.fromDom != d.toDom {
			if !found || l.cfg.Delay < min {
				min = l.cfg.Delay
				found = true
			}
		}
	}
	return min, found
}

// SetTelemetry attaches a metrics registry and flight recorder. Every
// existing NIC, link and switch registers its counters immediately;
// topology created afterwards registers at creation. The counters are the
// same ones Stats()/Counters() read — the registry observes them by
// reference, so exports and the legacy accessors can never disagree.
// The network itself emits nothing to the recorder: a per-frame drop is a
// counter by cause, and a sampled frame's span names the cause. Either
// argument may be nil.
func (n *Network) SetTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder) {
	n.reg = reg
	n.rec = rec
	for _, node := range n.nodes {
		for _, nic := range node.nics {
			n.registerNIC(nic)
		}
	}
	for _, l := range n.links {
		n.registerLink(l)
	}
	for _, s := range n.switches {
		n.registerSwitch(s)
	}
}

// Recorder exposes the attached flight recorder (nil when unattached);
// higher layers (netstack, container) emit through it.
func (n *Network) Recorder() *telemetry.Recorder { return n.rec }

// SetTracer attaches (or, with nil, detaches) the causal packet tracer.
// Origin points — the netstack send paths and the botnet flood engines —
// read it through Tracer() at send time.
func (n *Network) SetTracer(tr *trace.Tracer) { n.tracer = tr }

// Tracer exposes the attached packet tracer (nil when tracing is off; the
// trace API is nil-receiver safe, so callers use the result directly).
func (n *Network) Tracer() *trace.Tracer { return n.tracer }

// SetARPDirectory declares that owners lists every address in use on the
// network with the MAC of the host that answers for it. With a directory,
// no switch floods a question the directory can answer: a broadcast ARP
// request for a listed address is relayed toward its owner's MAC exactly as
// a unicast frame to that MAC would be (out the learned port, dropped at a
// partition boundary, flooded while the MAC is unlearned), and a request for
// an unlisted address — one no host can answer — is discarded at the first
// switch, counted per switch (Switch.ARPSuppressed) and as drop cause
// "arp-suppressed". ARP replies, gratuitous requests, every other broadcast
// and unknown unicast flood as before, and hosts resolve, learn and time out
// exactly as they do without one. Install it once, after telemetry, tracer
// and topology are in place and before the simulation runs: the switches
// that exist (and export metrics) gain their arp-suppressed series here, so
// a network without a directory exports the lines it always did. The map is
// adopted, not copied, and must not change afterwards.
func (n *Network) SetARPDirectory(owners map[packet.Addr]packet.MAC) {
	n.arpDir = owners
	n.tracer.ExportDropCause(trace.DropARPSuppressed)
	for _, s := range n.switches {
		if s.exported {
			n.reg.RegisterCounterRendered(&s.arpSuppressed, "netsim_switch_arp_suppressed_total",
				telemetry.RenderLabels(telemetry.L("switch", s.name)))
		}
	}
}

// SetMetricEntityLimit caps per-entity metric registration: only the
// first limit entities (NICs, links and switches combined, in creation
// order) publish their counters into the registry; later ones still
// count — Stats()/Counters() read the same fields — but stay out of the
// snapshot. Fleet-scale topologies use this so metric cardinality does
// not grow with the device count. Creation order is a pure function of
// the topology, never of the execution mode, so which entities register
// is deterministic and identical across Domains settings. 0 (the
// default) is unlimited. Must be set before entities are created or
// SetTelemetry is called.
func (n *Network) SetMetricEntityLimit(limit int) { n.metricLimit = limit }

// Links returns every link in creation order — the deterministic
// enumeration the profiler's per-entity attribution walks.
func (n *Network) Links() []*Link {
	out := make([]*Link, len(n.links))
	copy(out, n.links)
	return out
}

// Grow pre-sizes the topology containers for a build of known shape, so
// fleet-scale construction does not pay repeated slice growth and map
// rehashing. Zero or negative hints are ignored.
func (n *Network) Grow(nodes, links, switches int) {
	if nodes > 0 {
		n.nodes = slices.Grow(n.nodes, nodes)
		bigger := make(map[string]bool, len(n.nameSet)+nodes)
		for k, v := range n.nameSet {
			bigger[k] = v
		}
		n.nameSet = bigger
	}
	if links > 0 {
		n.links = slices.Grow(n.links, links)
	}
	if switches > 0 {
		n.switches = slices.Grow(n.switches, switches)
	}
}

// metricSlot reports whether one more entity may register its series,
// consuming a slot when it can.
func (n *Network) metricSlot() bool {
	if n.reg == nil {
		return false
	}
	if n.metricLimit > 0 && n.metricEntities >= n.metricLimit {
		return false
	}
	n.metricEntities++
	return true
}

func (n *Network) registerNIC(c *NIC) {
	if !n.metricSlot() {
		return
	}
	// One label render shared across the NIC's counter block: rendering is
	// the allocation-heavy part of registration, and at fleet scale the
	// per-entity blocks dominate topology build.
	ls := telemetry.RenderLabels(telemetry.L("nic", c.name))
	n.reg.RegisterCounterRendered(&c.rxFrames, "netsim_nic_rx_frames_total", ls)
	n.reg.RegisterCounterRendered(&c.rxBytes, "netsim_nic_rx_bytes_total", ls)
	n.reg.RegisterCounterRendered(&c.txFrames, "netsim_nic_tx_frames_total", ls)
	n.reg.RegisterCounterRendered(&c.txBytes, "netsim_nic_tx_bytes_total", ls)
	n.reg.RegisterCounterRendered(&c.ingressDropped, "netsim_nic_ingress_dropped_total", ls)
}

func (n *Network) registerLink(l *Link) {
	if !n.metricSlot() {
		return
	}
	for i := range l.dirs {
		d := &l.dirs[i]
		ls := telemetry.RenderLabels(telemetry.L("dir", d.name))
		// The tx pair is exported through txCompleted, not by reference: a
		// frame counts once its serialization is over, which no event marks.
		n.reg.RegisterCounterFuncRendered(func() uint64 { f, _ := d.txCompleted(); return f }, "netsim_link_tx_frames_total", ls)
		n.reg.RegisterCounterFuncRendered(func() uint64 { _, b := d.txCompleted(); return b }, "netsim_link_tx_bytes_total", ls)
		n.reg.RegisterCounterRendered(&d.dropFrames, "netsim_link_queue_drops_total", ls)
		n.reg.RegisterCounterRendered(&d.lossFrames, "netsim_link_loss_frames_total", ls)
		n.reg.RegisterCounterRendered(&d.corruptFrames, "netsim_link_corrupt_frames_total", ls)
		n.reg.RegisterCounterRendered(&d.dupFrames, "netsim_link_dup_frames_total", ls)
		n.reg.RegisterCounterRendered(&d.reorderFrames, "netsim_link_reorder_frames_total", ls)
		n.reg.RegisterCounterRendered(&d.inflightDrops, "netsim_link_inflight_drops_total", ls)
	}
}

func (n *Network) registerSwitch(s *Switch) {
	if !n.metricSlot() {
		return
	}
	s.exported = true
	ls := telemetry.RenderLabels(telemetry.L("switch", s.name))
	n.reg.RegisterCounterRendered(&s.forwarded, "netsim_switch_forwarded_total", ls)
	n.reg.RegisterCounterRendered(&s.flooded, "netsim_switch_flooded_total", ls)
}

// NewNode adds a named host node in domain 0. Names must be unique.
func (n *Network) NewNode(name string) *Node {
	return n.NewNodeInDomain(name, 0)
}

// NewNodeInDomain adds a named host node assigned to the given PDES
// domain. On a serial network the domain index is ignored.
func (n *Network) NewNodeInDomain(name string, domain int) *Node {
	if n.nameSet[name] {
		name = fmt.Sprintf("%s-%d", name, len(n.nodes))
	}
	n.nameSet[name] = true
	node := &Node{net: n, name: name}
	node.dom, node.sched = n.domainFor(domain)
	n.nodes = append(n.nodes, node)
	return node
}

// Nodes returns the hosts in creation order.
func (n *Network) Nodes() []*Node {
	out := make([]*Node, len(n.nodes))
	copy(out, n.nodes)
	return out
}

func (n *Network) nextMAC() packet.MAC {
	n.macSeq++
	return packet.MACFromUint64(n.macSeq)
}

// Node is a simulated host: a container-backed device, the attacker, the
// target server or the IDS. A node owns one or more NICs.
type Node struct {
	net   *Network
	name  string
	nics  []*NIC
	dom   *sim.Domain // nil in serial networks
	sched *sim.Scheduler
	// stage, while non-nil, routes identity allocation and metric
	// registration through the owning construction stage; Merge clears it.
	stage *Stage
}

// Network returns the owning network.
func (nd *Node) Network() *Network { return nd.net }

// Scheduler is the event queue all of this node's state advances on: its
// PDES domain scheduler in a partitioned network, the global one otherwise.
// Host stacks and applications on the node must schedule here.
func (nd *Node) Scheduler() *sim.Scheduler { return nd.sched }

// AddNIC attaches a new NIC to the node.
func (nd *Node) AddNIC() *NIC {
	if nd.stage != nil {
		return nd.stage.addNIC(nd)
	}
	nic := &NIC{node: nd, mac: nd.net.nextMAC(), index: len(nd.nics)}
	nic.name = nd.name + "/eth" + strconv.Itoa(nic.index)
	nd.nics = append(nd.nics, nic)
	nd.net.registerNIC(nic)
	return nic
}

// NICs returns all NICs in attachment order.
func (nd *Node) NICs() []*NIC {
	out := make([]*NIC, len(nd.nics))
	copy(out, nd.nics)
	return out
}

// NIC is a network interface with a MAC address, bound to one end of a link.
type NIC struct {
	node  *Node
	mac   packet.MAC
	side  uint8 // 0 or 1: which end of the link this NIC terminates
	index int
	name  string // "node/ethN", precomputed for alloc-free diagnostics
	link  *Link
	// handler receives every frame the NIC accepts, with its trace context
	// (the host network stack).
	handler func(raw []byte, tc trace.Context)
	// arpInert, when set, is the handler's owner telling whether a broadcast
	// ARP request would leave it exactly as it was: see SetARPInert.
	arpInert func(req packet.ARP) bool
	// ingress, when set, vets every arriving frame before the handler;
	// returning false drops it (the firewall hook). The filter terminates
	// sampled chains itself (the inline mitigation stage records its own
	// "mitigation" hop and drop cause): on a false return the NIC counts
	// the drop but records no span of its own.
	ingress func(raw []byte, tc trace.Context) bool

	// Shared telemetry counters: the registry exports these same
	// instances, and Stats()/IngressDropped() are thin value adapters, so
	// there is exactly one source of truth per count.
	rxFrames       telemetry.Counter
	rxBytes        telemetry.Counter
	txFrames       telemetry.Counter
	txBytes        telemetry.Counter
	ingressDropped telemetry.Counter
}

var _ Port = (*NIC)(nil)

func (c *NIC) scheduler() *sim.Scheduler { return c.node.sched }
func (c *NIC) domain() *sim.Domain       { return c.node.dom }

// MAC reports the NIC's hardware address.
func (c *NIC) MAC() packet.MAC { return c.mac }

// Node reports the owning node.
func (c *NIC) Node() *Node { return c.node }

// SetHandlerCtx installs the receive callback (the host network stack),
// which also receives each frame's trace context. raw is valid only until
// the handler returns: the NIC then releases the frame's buffer for reuse,
// so a handler that keeps any of the bytes copies them. It clears what
// SetARPInert installed, which spoke for the handler it replaces.
func (c *NIC) SetHandlerCtx(fn func(raw []byte, tc trace.Context)) {
	c.handler, c.arpInert = fn, nil
}

// SetHandler installs a receive callback that does not look at trace
// contexts. raw is valid only until it returns, as for SetHandlerCtx.
func (c *NIC) SetHandler(fn func(raw []byte)) {
	c.SetHandlerCtx(func(raw []byte, _ trace.Context) { fn(raw) })
}

// SetARPInert installs (or clears, with nil) the handler's answer to one
// question: would this broadcast ARP request, delivered unsampled, change
// nothing at all — no reply, no neighbour entry written, no waiting frame
// released? inert must read the owner's state and change none of it; it is
// asked at the request's arrival instant, in the NIC's domain. A NIC that
// answers lets a switch flooding the request count the copy it receives
// without running the handler: see arpBatch. Install it after the handler.
func (c *NIC) SetARPInert(inert func(req packet.ARP) bool) { c.arpInert = inert }

// Send transmits a raw frame out of the NIC. Frames sent on an unattached
// NIC are silently dropped, like a cable that was unplugged (device churn).
// Ownership passes as for SendCtx.
func (c *NIC) Send(raw []byte) { c.SendCtx(raw, trace.Context{}) }

// SendCtx is Send carrying a trace context: it records an instant "nic-tx"
// hop span and hands the chain to the link. An unattached NIC terminates
// the trace with DropUnattached.
//
// The frame belongs to the network from here on: the caller must not touch
// raw again. The network keeps exactly one owner per frame — a switch that
// floods it, and a link that duplicates or corrupts it, hand each extra
// receiver a copy of its own — and releases the buffer (packet.ReleaseFrame)
// where the frame's life ends: when its last receiver's handler returns, or
// where it is dropped, whatever the cause. Only buffers from the packet
// builders are recycled; a sender may pass a buffer of its own and reuse it
// once the frame has been delivered.
func (c *NIC) SendCtx(raw []byte, tc trace.Context) {
	lg := c.ledger()
	lg.sent++
	if c.link == nil {
		tc.Drop(c.node.sched.Now(), trace.DropUnattached)
		lg.release(raw)
		return
	}
	c.txFrames.Inc()
	c.txBytes.Add(uint64(len(raw)))
	if tc.Sampled() {
		now := c.node.sched.Now()
		hop := tc.Start(now, "nic-tx", c.name)
		hop.Finish(now)
		tc = hop
	}
	c.link.send(int(c.side), raw, tc, nil)
}

// Stats reports cumulative frame/byte counters (rx then tx).
func (c *NIC) Stats() (rxFrames, rxBytes, txFrames, txBytes uint64) {
	return c.rxFrames.Value(), c.rxBytes.Value(), c.txFrames.Value(), c.txBytes.Value()
}

// ledger is the frame account of the NIC's domain.
func (c *NIC) ledger() *frameLedger { return c.node.net.ledger(c.node.dom) }

// receive is the frame's terminal point: it is released here, dropped at
// ingress or once the handler is done with it.
func (c *NIC) receive(raw []byte, tc trace.Context) {
	if c.ingress != nil && !c.ingress(raw, tc) {
		c.ingressDropped.Inc()
		c.ledger().release(raw)
		return
	}
	c.rxFrames.Inc()
	c.rxBytes.Add(uint64(len(raw)))
	if tc.Sampled() {
		now := c.node.sched.Now()
		hop := tc.Start(now, "nic-rx", c.name)
		hop.Finish(now)
		tc = hop
	}
	if c.handler != nil {
		c.handler(raw, tc)
	} else {
		tc.Drop(c.node.sched.Now(), trace.DropNoSocket)
	}
	c.ledger().release(raw)
}

// SetIngressFilterCtx installs (or clears, with nil) a frame filter that
// runs before the receive handler; returning false drops the frame. A
// firewall in front of the host attaches here. The filter owns the
// causal-tracing side of a drop: it must terminate sampled chains itself
// (with its own hop span and drop cause) when it returns false. Like a
// handler, it must not keep raw past its return.
func (c *NIC) SetIngressFilterCtx(fn func(raw []byte, tc trace.Context) bool) { c.ingress = fn }

// IngressDropped reports frames discarded by the ingress filter.
func (c *NIC) IngressDropped() uint64 { return c.ingressDropped.Value() }

// SetLinkUp plugs or unplugs this NIC's side of its link. Only the NIC's
// own side changes, so the operation is domain-local: a halting container
// can always unplug itself even when the far end (a switch port) lives in
// another PDES domain. No-op on an unattached NIC.
func (c *NIC) SetLinkUp(up bool) {
	if c.link != nil {
		c.link.SetUpSide(int(c.side), up)
	}
}

// String identifies the NIC as "node/ethN".
func (c *NIC) String() string { return c.name }

// LinkConfig sets the physical properties of a duplex link.
type LinkConfig struct {
	// RateBps is the line rate in bits per second (default 100 Mb/s).
	RateBps int64
	// Delay is the one-way propagation delay (default 1 ms).
	Delay sim.Time
	// QueueBytes caps each direction's drop-tail queue (default 128 KiB).
	QueueBytes int
	// LossProb drops each frame independently with this probability.
	// Zero disables random loss. Each direction draws from its own stream,
	// keyed by the network seed (SetSeed), the link index and the
	// direction.
	LossProb float64
}

func (cfg LinkConfig) withDefaults() LinkConfig {
	if cfg.RateBps <= 0 {
		cfg.RateBps = 100_000_000
	}
	if cfg.Delay <= 0 {
		cfg.Delay = sim.Millisecond
	}
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = 128 << 10
	}
	return cfg
}

// Impairments are runtime-adjustable link degradations beyond up/down —
// the knobs the fault injector turns. All probabilities are independent
// per-frame draws from RNG; zero values disable the corresponding effect.
type Impairments struct {
	// LossProb silently discards each frame with this probability.
	LossProb float64
	// CorruptProb flips one random bit of the delivered copy of a frame
	// with this probability. The corrupted frame still arrives; receivers
	// see it fail checksum or dissection, exactly like real bit rot.
	CorruptProb float64
	// DupProb delivers a second copy of the frame, one serialization time
	// after the original, with this probability.
	DupProb float64
	// ReorderProb holds a frame for ReorderDelay extra propagation with
	// this probability, letting frames sent after it overtake it.
	ReorderProb float64
	// ReorderDelay is the extra hold applied to reordered frames
	// (default: 4x the link's propagation delay).
	ReorderDelay sim.Time
	// RNG drives the random draws; required when any probability > 0.
	RNG *sim.RNG
}

// Active reports whether any impairment probability is set.
func (im Impairments) Active() bool {
	return im.LossProb > 0 || im.CorruptProb > 0 || im.DupProb > 0 || im.ReorderProb > 0
}

// LinkStats is the full per-link counter set, aggregated over both
// directions. QueueDrops counts drop-tail and sent-while-down discards;
// InFlightDrops counts frames that were in flight when the link went down.
type LinkStats struct {
	TxFrames      uint64
	TxBytes       uint64
	QueueDrops    uint64
	LossFrames    uint64
	CorruptFrames uint64
	DupFrames     uint64
	ReorderFrames uint64
	InFlightDrops uint64
}

// Drops totals every discarded frame (queue, random loss, in-flight cut).
func (s LinkStats) Drops() uint64 { return s.QueueDrops + s.LossFrames + s.InFlightDrops }

// Add accumulates o into s, for fleet-wide aggregation.
func (s *LinkStats) Add(o LinkStats) {
	s.TxFrames += o.TxFrames
	s.TxBytes += o.TxBytes
	s.QueueDrops += o.QueueDrops
	s.LossFrames += o.LossFrames
	s.CorruptFrames += o.CorruptFrames
	s.DupFrames += o.DupFrames
	s.ReorderFrames += o.ReorderFrames
	s.InFlightDrops += o.InFlightDrops
}

// Link is a full-duplex point-to-point link between two ports. Each
// direction has an independent transmitter with a drop-tail byte queue.
//
// Up/down state and impairments are held per SIDE: side i is owned by the
// domain of ends[i], and every mutation of side i's state executes on that
// side's scheduler: callers route SetUpSide and SetImpairmentsSide to the
// owning scheduler of the side they change.
type Link struct {
	net *Network
	cfg LinkConfig
	// dirs[i] carries frames from ends[i] to ends[1-i]. The directions are
	// embedded by value: at fleet scale the two extra allocations per link
	// (and the pointer chase per delivery) were measurable in both build
	// time and steady-state heap.
	dirs [2]direction
	ends [2]Port
	taps []Tap
	up   [2]bool // per-side cable state; owned by ends[i]'s domain
	idx  int     // creation index; the structural delivery tie-break key
}

// queuedFrame is one drop-tail queue entry: the frame plus its trace
// context, which must ride along so the "link" span covers queueing delay.
type queuedFrame struct {
	raw []byte
	tc  trace.Context
}

type direction struct {
	link *Link
	from int
	name string // "src->dst" port pair, precomputed for labels/events
	// queue[qhead:] are the frames waiting, oldest first. Popping advances
	// qhead instead of re-slicing, so the array's front is not lost to the
	// next append: see enqueue.
	queue  []queuedFrame
	qhead  int
	queued int // bytes waiting (excluding the frame in transmission)
	// busyUntil is the instant the frame in the transmitter (curLen bytes)
	// finishes serializing. Completion is a comparison against the sender's
	// clock, not an event: the transmitter is free once now >= busyUntil and
	// nothing is queued. doneFn — bound once at Connect, so arming it never
	// allocates — is scheduled at busyUntil (armed says one is pending) only
	// when something depends on that instant being reached: a queued frame
	// that must start then, or a lost frame, whose arrival would otherwise
	// have carried the clock past the end of its serialization.
	busyUntil sim.Time
	doneFn    sim.Handler
	// curLen shares a word with armed: a link is allocated with a header, so
	// one more word would put it in the next size class.
	curLen int32
	armed  bool

	// sched is the sending port's scheduler: queueing, serialization and
	// loss draws execute in the sender's domain. fromDom/toDom/toSched
	// route the arrival — same domain via toSched.AtKeyed, cross-domain via
	// fromDom.PostKeyed (the conservative lookahead message path). fromDom
	// is nil on serial networks.
	sched   *sim.Scheduler
	fromDom *sim.Domain
	toDom   *sim.Domain
	toSched *sim.Scheduler
	// arrKey is (link index, direction) in the high bits of a delivery's
	// scheduler key; arrSeq numbers the direction's deliveries in send order
	// (incremented in the sender's domain, so it is deterministic) and fills
	// the low arrSeqBits. See scheduleArrival.
	arrKey uint64
	arrSeq uint64
	// lastArrive is the latest instant any frame sent so far lands at, in
	// the sender's domain: a flood copy landing after it is the first of
	// the direction's frames to land at its instant (see arpBatch.join).
	lastArrive sim.Time

	// lossRNG drives this direction's random-loss draws, and imp its
	// impairment draws. Both are direction-private streams consumed only
	// in the sender's domain (transmit), so the draw sequence depends only
	// on this direction's frame sequence — never on how events from other
	// links or domains interleave. That per-entity discipline is what lets
	// lossy and impaired links cross domain boundaries: the sender decides
	// drop/corrupt/dup/reorder before the frame rides the lookahead
	// message path, and the receiver sees a deterministic stream.
	lossRNG *sim.RNG
	imp     Impairments

	// Shared telemetry counters; Counters() aggregates the two
	// directions' values into the legacy LinkStats view. txFrames/txBytes
	// count frames that have entered the transmitter; what is exported is
	// txCompleted, which holds the one still serializing back.
	txFrames      telemetry.Counter
	txBytes       telemetry.Counter
	dropFrames    telemetry.Counter
	lossFrames    telemetry.Counter
	corruptFrames telemetry.Counter
	dupFrames     telemetry.Counter
	reorderFrames telemetry.Counter
	inflightDrops telemetry.Counter

	// The direction's share of the frame account (see LedgerSide): frames
	// handed to it, counted in the sender's domain, and frames it handed to
	// the receiving port, counted in the receiver's.
	offered   uint64
	delivered uint64
}

// Connect wires two ports with a duplex link. In a partitioned network a
// link whose endpoints live in different domains becomes a cross-domain
// channel; its propagation delay bounds the engine lookahead. Random loss
// is supported on cross-domain links: each direction draws from its own
// RNG stream keyed from the network seed, and
// the draw happens in the sender's domain before the frame crosses the
// epoch barrier, so partitioned runs stay byte-identical to serial ones.
func (n *Network) Connect(a, b Port, cfg LinkConfig) *Link {
	l := wireLink(n, a, b, cfg, n.linkSeq)
	n.linkSeq++
	n.links = append(n.links, l)
	n.registerLink(l)
	return l
}

// wireLink builds and binds a link with a caller-chosen creation index. It
// touches no Network-owned collections, so stages can call it concurrently
// over disjoint index ranges; Connect and Stage.Connect both delegate here.
func wireLink(n *Network, a, b Port, cfg LinkConfig, idx int) *Link {
	if idx >= maxLinks {
		panic("netsim: link index does not fit the delivery key")
	}
	l := &Link{net: n, cfg: cfg.withDefaults(), ends: [2]Port{a, b}, up: [2]bool{true, true}, idx: idx}
	l.dirs[0] = direction{
		link: l, from: 0, name: a.String() + "->" + b.String(),
		sched: a.scheduler(), fromDom: a.domain(), toDom: b.domain(), toSched: b.scheduler(),
	}
	l.dirs[1] = direction{
		link: l, from: 1, name: b.String() + "->" + a.String(),
		sched: b.scheduler(), fromDom: b.domain(), toDom: a.domain(), toSched: a.scheduler(),
	}
	for i := range l.dirs {
		d := &l.dirs[i]
		d.arrKey = uint64(2*idx+i) << arrSeqBits
		d.doneFn = d.txDone
	}
	if l.cfg.LossProb > 0 {
		// Per-direction loss streams, fixed at construction and keyed from
		// the network seed, so concurrent stages need not share one.
		for i := range l.dirs {
			l.dirs[i].lossRNG = sim.KeyedStream(n.seed, lossStreamKey, uint64(l.idx), uint64(i))
		}
	}
	bindPort(a, l, 0)
	bindPort(b, l, 1)
	return l
}

// lossStreamKey salts the (network seed, link index, direction) keyed
// streams so they cannot collide with other KeyedStream users.
const lossStreamKey = 0x6c696e6b2d6c6f73 // "link-los"

func bindPort(p Port, l *Link, side int) {
	switch v := p.(type) {
	case *NIC:
		v.link = l
		v.side = uint8(side)
	case *switchPort:
		v.link = l
		v.side = side
	}
}

// AddTap registers a passive observer invoked for every frame the link
// delivers (in either direction).
func (l *Link) AddTap(t Tap) { l.taps = append(l.taps, t) }

// SetUpSide raises or cuts one side of the link — the end attached at
// ends[side]. A side being down drops frames sent from it at the queue, and
// drops frames arriving into it at their arrival instant (a cut cable loses
// what's on the wire, counted in LinkStats.InFlightDrops). Side state is
// owned by that end's domain: a container halt unplugs its own NIC's side,
// and the fault injector cuts a link with one sub-event per side, each on
// the owning scheduler.
func (l *Link) SetUpSide(side int, up bool) { l.up[side] = up }

// UpSide reports whether ends[side]'s cable is plugged in.
func (l *Link) UpSide(side int) bool { return l.up[side] }

// SetImpairmentsSide installs (or, with the zero value, clears) runtime
// impairments on the single direction that sends FROM ends[side]. Takes
// effect for frames transmitted after the call. The spec's RNG is used
// as-is, so each direction needs a stream of its own: one shared between
// the directions would couple them (and, across domains, race).
func (l *Link) SetImpairmentsSide(side int, im Impairments) { l.dirs[side].imp = im }

// ImpairmentsSide returns the impairment set sending from ends[side],
// including its private RNG, so a fault window can save and restore it.
func (l *Link) ImpairmentsSide(side int) Impairments { return l.dirs[side].imp }

// SideOf reports which end of the link p terminates, or -1 when p is not
// one of the link's ports.
func (l *Link) SideOf(p Port) int {
	switch p {
	case l.ends[0]:
		return 0
	case l.ends[1]:
		return 1
	}
	return -1
}

// SideScheduler returns the scheduler owning ends[side] — the event queue
// any mutation of that side's state (SetUpSide, SetImpairmentsSide) must
// execute on in a partitioned run. In a serial network both sides report
// the global scheduler.
func (l *Link) SideScheduler(side int) *sim.Scheduler { return l.ends[side].scheduler() }

// Counters aggregates both directions' full counter set. The values come
// from the same shared telemetry counters the registry exports, so the
// legacy view and /metrics can never diverge. TxFrames/TxBytes compare the
// sending side's clock with its transmitter (see txCompleted): in a
// partitioned run they are exact from that side's domain, at an epoch
// barrier and after the run, and approximate read mid-window from elsewhere.
func (l *Link) Counters() LinkStats {
	s := l.CountersSide(0)
	s.Add(l.CountersSide(1))
	return s
}

// CountersSide reports the counter set of the single direction sending
// FROM ends[side] — the per-direction view the virtual-load profiler
// attributes cross-domain frames with (Counters sums both directions).
func (l *Link) CountersSide(side int) LinkStats {
	d := &l.dirs[side]
	txFrames, txBytes := d.txCompleted()
	return LinkStats{
		TxFrames:      txFrames,
		TxBytes:       txBytes,
		QueueDrops:    d.dropFrames.Value(),
		LossFrames:    d.lossFrames.Value(),
		CorruptFrames: d.corruptFrames.Value(),
		DupFrames:     d.dupFrames.Value(),
		ReorderFrames: d.reorderFrames.Value(),
		InFlightDrops: d.inflightDrops.Value(),
	}
}

// String names the link by its forward direction's port pair ("a->b").
func (l *Link) String() string { return l.dirs[0].name }

// serializationTime is how long a frame of n bytes occupies the transmitter.
func (l *Link) serializationTime(n int) sim.Time {
	return sim.Time(int64(n) * 8 * int64(sim.Second) / l.cfg.RateBps)
}

// send offers a frame to the direction sending from ends[from]. b, when not
// nil, is the flood batch whose buffer raw is, and which the frame may join
// once its arrival is known (see arpBatch); a frame that queues takes a
// buffer of its own, and one that is dropped is only counted.
func (l *Link) send(from int, raw []byte, tc trace.Context, b *arpBatch) {
	d := &l.dirs[from]
	now := d.sched.Now()
	d.offered++
	// The "link" span opens at enqueue, so it covers queueing delay plus
	// serialization plus propagation — the full hop latency.
	span := tc.Start(now, "link", d.name)
	if !l.up[from] {
		d.dropFrames.Inc()
		span.Drop(now, trace.DropLinkDown)
		d.txLedger().end(raw, b)
		return
	}
	if now < d.busyUntil || len(d.queue) > 0 {
		if d.queued+len(raw) > l.cfg.QueueBytes {
			d.dropFrames.Inc() // drop-tail: queue full
			span.Drop(now, trace.DropQueueFull)
			d.txLedger().end(raw, b)
			return
		}
		d.enqueue(queuedFrame{raw: own(raw, b), tc: span})
		return
	}
	d.transmit(raw, span, b)
}

func (d *direction) transmit(raw []byte, tc trace.Context, b *arpBatch) {
	l := d.link
	ser := l.serializationTime(len(raw))
	sched := d.sched
	// Transmitter frees after serialization; frame lands after propagation.
	// The counters move before busyUntil does, so a reader racing this from
	// another domain (see txCompleted) never holds back a frame that is not
	// counted yet.
	d.txFrames.Inc()
	d.txBytes.Add(uint64(len(raw)))
	d.curLen = int32(len(raw))
	d.busyUntil = sched.Now() + ser
	lg := d.txLedger()
	if l.cfg.LossProb > 0 && d.lossRNG != nil && d.lossRNG.Bool(l.cfg.LossProb) {
		d.lossFrames.Inc()
		tc.Drop(sched.Now(), trace.DropLoss)
		lg.end(raw, b)
		d.arm()
		return
	}
	arrive := sched.Now() + ser + l.cfg.Delay
	dup := false
	if im := d.imp; im.RNG != nil && im.Active() {
		if im.LossProb > 0 && im.RNG.Bool(im.LossProb) {
			d.lossFrames.Inc()
			tc.Drop(sched.Now(), trace.DropLoss)
			lg.end(raw, b)
			d.arm()
			return
		}
		if im.CorruptProb > 0 && im.RNG.Bool(im.CorruptProb) {
			bad := corruptedCopy(raw, im.RNG)
			lg.copies++
			lg.end(raw, b)
			raw = bad
			b = nil // no longer the request the switch read, and its own
			d.corruptFrames.Inc()
		}
		if im.DupProb > 0 && im.RNG.Bool(im.DupProb) {
			dup = true
			d.dupFrames.Inc()
		}
		if im.ReorderProb > 0 && im.RNG.Bool(im.ReorderProb) {
			extra := im.ReorderDelay
			if extra <= 0 {
				extra = 4 * l.cfg.Delay
			}
			arrive += extra
			d.reorderFrames.Inc()
		}
	}
	if dup {
		// The duplicate is a copy of its own, as is a primary borrowed from
		// a flood batch, made before the primary's arrival is scheduled (from
		// then on the primary is the receiver's). It shares the primary's
		// span: the second Finish is a no-op, and its downstream hops chain
		// off the same parent.
		raw = own(raw, b)
		second := packet.CloneFrame(raw)
		lg.copies++
		d.scheduleArrival(arrive, raw, tc)
		d.scheduleArrival(arrive+ser, second, tc)
		return
	}
	if b != nil && b.join(d, arrive) {
		return
	}
	d.scheduleArrival(arrive, own(raw, b), tc)
}

// arm schedules txDone at busyUntil unless it already is.
func (d *direction) arm() {
	if !d.armed {
		d.armed = true
		d.sched.At(d.busyUntil, d.doneFn)
	}
}

// txDone fires at busyUntil: it starts the oldest queued frame and, if more
// wait behind it, arms itself for that frame's completion. Armed for a lost
// frame with nothing queued, it has done its work by firing — a drained
// scheduler's clock now stands at the end of that frame's serialization.
func (d *direction) txDone() {
	d.armed = false
	if len(d.queue) == 0 {
		return
	}
	next := d.queue[d.qhead]
	d.queue[d.qhead] = queuedFrame{}
	d.qhead++
	if d.qhead == len(d.queue) {
		d.queue, d.qhead = d.queue[:0], 0
	}
	d.queued -= len(next.raw)
	d.transmit(next.raw, next.tc, nil)
	if len(d.queue) > 0 {
		d.arm()
	}
}

// txCompleted reports the frames and bytes whose serialization has finished
// by the sender's clock: everything that entered the transmitter except a
// frame still occupying it. The answer is exact in the sender's domain, at
// an epoch barrier and after the run. Read from another domain while the
// sender's window executes, it is the approximation every export-time metric
// of a partitioned run is then; the bounds keep a stale busyUntil or curLen
// from wrapping it below zero.
func (d *direction) txCompleted() (frames, bytes uint64) {
	frames, bytes = d.txFrames.Value(), d.txBytes.Value()
	if d.sched.Now() < d.busyUntil && frames > 0 {
		frames--
		bytes -= min(bytes, uint64(d.curLen))
	}
	return frames, bytes
}

// enqueue appends a frame to the transmit queue, arming txDone when it is
// the first to wait. A link that stays busy never drains, so when the array
// is full the slots popped since the last shift are reclaimed first; the
// array grows only once fewer than half of them are free, which keeps the
// shifting at amortized O(1) per frame.
func (d *direction) enqueue(f queuedFrame) {
	d.arm()
	if len(d.queue) == cap(d.queue) && d.qhead > len(d.queue)/2 {
		n := copy(d.queue, d.queue[d.qhead:])
		clear(d.queue[n:])
		d.queue, d.qhead = d.queue[:n], 0
	}
	d.queue = append(d.queue, f)
	d.queued += len(f.raw)
}

// A delivery's scheduler key is link index ‖ direction ‖ send sequence in
// 25 + 1 + 36 bits (sim.Scheduler.AtKeyed takes 62). The sequence wraps
// after 2^36 frames in one direction, which can misorder only two deliveries
// of that direction landing in the same nanosecond across the wrap.
const (
	arrSeqBits = 36
	maxLinks   = 1 << 25
)

// scheduleArrival lands the frame at the receiving port at instant at. The
// delivery event executes in the RECEIVER's domain: for a same-domain link
// that is a plain scheduler insert; for a cross-domain link it rides the
// engine's lookahead message path (arrive >= now + link delay >= the end
// of the sender's current window, so Post's contract always holds).
//
// The event is keyed, so among the events of its instant it fires after
// every normal one and in (link index, direction, send sequence) order — a
// function of the topology, never of scheduling order. Without that, two
// frames arriving at the same instant from different domains would be
// processed in engine merge order, while the serial scheduler processes
// them in global scheduling order — and order-sensitive receivers (switch
// MAC learning/eviction) would diverge between the two execution modes.
// Per-domain heaps hold the same order as the serial one because a delivery
// only touches receiver-local state.
func (d *direction) scheduleArrival(at sim.Time, raw []byte, tc trace.Context) {
	d.lastArrive = max(d.lastArrive, at)
	d.post(at, d.nextKey(), raw, tc)
}

// nextKey uses up the direction's next delivery key.
func (d *direction) nextKey() uint64 {
	d.arrSeq++
	return d.arrKey | d.arrSeq&(1<<arrSeqBits-1)
}

// post schedules the delivery of raw at (at, key) in the receiver's domain.
func (d *direction) post(at sim.Time, key uint64, raw []byte, tc trace.Context) {
	e := arrivalEventPool.Get().(*arrivalEvent)
	e.dir, e.raw, e.tc = d, raw, tc
	if d.fromDom != nil && d.fromDom != d.toDom {
		d.fromDom.PostKeyed(d.toDom, at, key, e.fn)
	} else {
		d.toSched.AtKeyed(at, key, e.fn)
	}
}

// arrivalEvent carries one pending delivery from the sender's schedule
// point to the receiving port. Events are pooled with their handler closure
// bound once at pool construction, so the steady-state hop path schedules
// deliveries without allocating. The pool is shared across domains
// (sync.Pool is concurrency-safe), and reuse order cannot affect results:
// an event is only a carrier for the frame it was last handed.
type arrivalEvent struct {
	dir *direction
	raw []byte
	tc  trace.Context
	fn  sim.Handler // bound once to fire
}

func (e *arrivalEvent) fire() {
	d, raw, tc := e.dir, e.raw, e.tc
	e.dir, e.raw, e.tc = nil, nil, trace.Context{}
	arrivalEventPool.Put(e)
	d.deliver(raw, tc)
}

var arrivalEventPool sync.Pool

func init() {
	arrivalEventPool.New = func() any {
		e := &arrivalEvent{}
		e.fn = e.fire
		return e
	}
}

// deliver processes one frame at the receiving port, at its arrival instant.
// The port owns the frame from here on; taps only look.
func (d *direction) deliver(raw []byte, tc trace.Context) {
	l := d.link
	now := d.toSched.Now()
	if !l.up[1-d.from] {
		d.inflightDrops.Inc()
		tc.Drop(now, trace.DropInFlightCut)
		l.net.ledger(d.toDom).release(raw)
		return
	}
	d.delivered++
	tc.Finish(now)
	for _, tap := range l.taps {
		tap(now, raw, tc)
	}
	l.ends[1-d.from].receive(raw, tc)
}

// corruptedCopy returns a copy of raw in a frame buffer of its own, with one
// pseudo-randomly chosen bit flipped. The original is left untouched: it may
// be a sender's own buffer, which the network must not write.
func corruptedCopy(raw []byte, rng *sim.RNG) []byte {
	b := packet.CloneFrame(raw)
	if len(b) > 0 {
		bit := rng.Intn(len(b) * 8)
		b[bit/8] ^= 1 << uint(bit%8)
	}
	return b
}
