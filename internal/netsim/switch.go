package netsim

import (
	"strconv"

	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/telemetry/trace"
)

// Switch is a learning Ethernet switch: the CSMA segment that joins the
// testbed's containers in the paper's topology. It floods unknown and
// broadcast destinations and learns source MACs per port. On a network with
// an ARP directory (Network.SetARPDirectory) a broadcast ARP request is
// relayed toward the address's owner, or discarded when it has none.
type Switch struct {
	net   *Network
	name  string
	ports []*switchPort
	table map[packet.MAC]*switchPort
	dom   *sim.Domain // nil in serial networks
	sched *sim.Scheduler

	// Shared telemetry counters; Stats()/ARPSuppressed() are adapters.
	forwarded     telemetry.Counter
	flooded       telemetry.Counter
	arpSuppressed telemetry.Counter
	// exported is false when the network has no registry or its
	// metric-entity cap left this switch out of it.
	exported bool

	// spare holds flood batches that have fired, for the next floods.
	spare []*arpBatch
}

// NewSwitch adds a named learning switch to the network (domain 0).
func (n *Network) NewSwitch(name string) *Switch {
	return n.NewSwitchInDomain(name, 0)
}

// NewSwitchInDomain adds a named learning switch assigned to the given
// PDES domain. On a serial network the domain index is ignored.
func (n *Network) NewSwitchInDomain(name string, domain int) *Switch {
	s := &Switch{net: n, name: name, table: make(map[packet.MAC]*switchPort)}
	s.dom, s.sched = n.domainFor(domain)
	n.switches = append(n.switches, s)
	n.registerSwitch(s)
	return s
}

// Name returns the switch name.
func (s *Switch) Name() string { return s.name }

// NewPort adds a port to the switch; wire it with Network.Connect.
func (s *Switch) NewPort() Port {
	p := &switchPort{sw: s, index: len(s.ports)}
	p.name = s.name + "/port" + strconv.Itoa(p.index)
	s.ports = append(s.ports, p)
	return p
}

// Stats reports frames forwarded to a learned port and frames flooded.
func (s *Switch) Stats() (forwarded, flooded uint64) {
	return s.forwarded.Value(), s.flooded.Value()
}

// Learn pre-seeds the MAC table, binding mac to p exactly as if a frame
// from mac had already arrived on that port. Fleet-scale topologies prime
// their switches (alongside static ARP, see testbed.Config.PrimeARP) so
// first-contact unicast forwards instead of flooding the whole segment,
// and so an ARP request for a primed host is relayed out one port (see
// Network.SetARPDirectory). Later dynamic learning overwrites the entry as
// usual. Returns false when p is not a port of this switch.
func (s *Switch) Learn(mac packet.MAC, p Port) bool {
	sp, ok := p.(*switchPort)
	if !ok || sp.sw != s {
		return false
	}
	s.table[mac] = sp
	return true
}

// PartitionDrops returns 0: a switch no longer partitions its ports.
//
// Deprecated: kept only for the benchmark's tally, which still adds it.
func (s *Switch) PartitionDrops() uint64 { return 0 }

// ARPSuppressed reports broadcast ARP requests discarded here because the
// network's ARP directory lists no owner for the address asked about.
func (s *Switch) ARPSuppressed() uint64 { return s.arpSuppressed.Value() }

type switchPort struct {
	sw    *Switch
	index int
	name  string // "switch/portN", precomputed
	link  *Link
	side  int
}

var _ Port = (*switchPort)(nil)

func (p *switchPort) String() string { return p.name }

func (p *switchPort) scheduler() *sim.Scheduler { return p.sw.sched }
func (p *switchPort) domain() *sim.Domain       { return p.sw.dom }

// send relays a frame out of the port; b, when not nil, is the flood batch
// whose buffer raw is (see arpBatch).
func (p *switchPort) send(raw []byte, tc trace.Context, b *arpBatch) {
	if p.link != nil {
		p.link.send(p.side, raw, tc, b)
		return
	}
	p.sw.ledger().end(raw, b)
}

// ledger is the frame account of the switch's domain.
func (s *Switch) ledger() *frameLedger { return s.net.ledger(s.dom) }

// receive relays the frame, or ends its life here: every branch either
// hands it on to exactly one port or releases it. A flood gives each egress
// port but the last a copy of its own, except that a batched ARP request's
// ports all borrow the one buffer, which its batch releases.
func (p *switchPort) receive(raw []byte, tc trace.Context) {
	s := p.sw
	now := s.sched.Now()
	eth, rest, err := packet.UnmarshalEthernet(raw)
	if err != nil {
		tc.Start(now, "switch", p.name).Drop(now, trace.DropMalformed)
		s.ledger().release(raw)
		return // runt frame: discard
	}
	span := tc.Start(now, "switch", p.name)
	if !eth.Src.IsBroadcast() {
		s.table[eth.Src] = p
	}
	// dst is where the frame is relayed to: its Ethernet destination, except
	// for a broadcast ARP request on a network whose directory knows who owns
	// every address — that one goes toward the owner like a unicast frame
	// would (one port when the owner's MAC is learned, a flood when not), or
	// nowhere when nobody owns the address. The frame itself is untouched.
	dst := eth.Dst
	if dir := s.net.arpDir; dir != nil && eth.Type == packet.EtherTypeARP && dst.IsBroadcast() {
		if target, ok := arpQuestion(rest); ok {
			owner, owned := dir[target]
			if !owned {
				s.arpSuppressed.Inc()
				span.Drop(now, trace.DropARPSuppressed)
				s.ledger().release(raw)
				return
			}
			dst = owner
		}
	}
	if !dst.IsBroadcast() {
		if out, ok := s.table[dst]; ok {
			if out != p {
				s.forwarded.Inc()
				span.Finish(now)
				out.send(raw, span, nil)
				return
			}
			// Destination hangs off the ingress port: nothing to relay.
			span.FinishTag(now, "same-port")
			s.ledger().release(raw)
			return
		}
	}
	// Broadcast or unknown unicast: flood all other ports, in port order.
	s.flooded.Inc()
	span.Finish(now)
	if batchARPFloods && len(s.ports) > 1 && !span.Sampled() && eth.Type == packet.EtherTypeARP && eth.Dst.IsBroadcast() {
		if req, err := packet.UnmarshalARP(rest); err == nil && req.Op == packet.ARPRequest {
			// An unsampled broadcast ARP request: every egress port borrows
			// the one buffer, and the copies that reach hosts at one instant
			// may gather into one batch event (see arpBatch).
			// The account counts a copy per egress port but the first, as
			// when each takes a buffer of its own.
			b := s.newBatch(req, raw)
			s.ledger().copies += uint64(len(s.ports) - 2)
			for _, out := range s.ports {
				if out != p {
					out.send(raw, span, b)
				}
			}
			s.launch(b)
			return
		}
	}
	// Each port is sent to once the next one is found, so the last takes
	// the frame itself and every other one a copy.
	var prev *switchPort
	for _, out := range s.ports {
		if out != p {
			if prev != nil {
				s.ledger().copies++
				prev.send(packet.CloneFrame(raw), span, nil)
			}
			prev = out
		}
	}
	if prev == nil {
		s.ledger().release(raw)
	} else {
		prev.send(raw, span, nil)
	}
}

// arpQuestion reports the address a well-formed ARP request asks about.
// Replies, and gratuitous requests (sender announcing its own address to
// everyone), are not questions.
func arpQuestion(b []byte) (target packet.Addr, ok bool) {
	a, err := packet.UnmarshalARP(b)
	if err != nil || a.Op != packet.ARPRequest || a.SenderIP == a.TargetIP {
		return packet.Addr{}, false
	}
	return a.TargetIP, true
}
