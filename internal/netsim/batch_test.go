package netsim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/telemetry/trace"
)

// fakeOwner stands in for a host stack on a batch rig's NIC: it keeps a
// neighbour table, reacts to ARP as netstack.Host does (refresh an entry it
// holds, release what waits on it, create one and answer when asked for its
// own address) and logs every change it makes, never a mere arrival. Its
// inert answer follows the same table.
type fakeOwner struct {
	nic   *NIC
	addr  packet.Addr
	neigh map[packet.Addr]fakeEntry
	log   *[]string
}

type fakeEntry struct {
	mac     packet.MAC
	waiting bool
}

func (o *fakeOwner) inert(a packet.ARP) bool {
	if a.TargetIP == o.addr {
		return false
	}
	e, ok := o.neigh[a.SenderIP]
	return !ok || e.mac == a.SenderMAC && !e.waiting
}

func (o *fakeOwner) handle(raw []byte, _ trace.Context) {
	note := func(what string, args ...any) {
		*o.log = append(*o.log, fmt.Sprintf("%v %s %s", o.nic.node.sched.Now(), o.nic, fmt.Sprintf(what, args...)))
	}
	eth, rest, err := packet.UnmarshalEthernet(raw)
	if err != nil || eth.Type != packet.EtherTypeARP {
		note("non-ARP frame of %d bytes", len(raw))
		return
	}
	a, err := packet.UnmarshalARP(rest)
	if err != nil {
		note("malformed ARP")
		return
	}
	e, ok := o.neigh[a.SenderIP]
	if ok || a.Op == packet.ARPReply || a.TargetIP == o.addr {
		if e.waiting {
			note("flushes what waits on %v", a.SenderIP)
		}
		if e.mac != a.SenderMAC {
			note("learns %v at %v", a.SenderIP, a.SenderMAC)
		}
		o.neigh[a.SenderIP] = fakeEntry{mac: a.SenderMAC}
	}
	if a.Op == packet.ARPRequest && a.TargetIP == o.addr {
		note("answers %v", a.SenderIP)
		o.nic.Send(arpFrame(o.nic, o.addr, packet.ARPReply, a.SenderIP, a.SenderMAC))
	}
}

// batchRig is a star of five hosts, each behind a fakeOwner: host 0 asks
// who has an address, and hosts 1–4 hear the flood. Its links are created
// in the order host 0, 1, 2, then y→z, then hosts 3 and 4, so a frame y
// sends over its direct link to z at the flood's instant lands at the
// copies' instant with a key between host 2's and host 3's.
type batchRig struct {
	net    *Network
	sched  *sim.Scheduler // domain 0's in a partitioned rig
	engine *sim.Engine
	sw     *Switch
	nics   []*NIC
	links  []*Link // links[i] joins host i (side 0) to the switch (side 1)
	owners []*fakeOwner
	y, z   *NIC
	rec    *telemetry.Recorder
	tracer *trace.Tracer
	log    []string

	// ser is a request's serialization time, flood the instant the switch
	// floods it and arrive the instant its copies land, for a request sent
	// at sendAt.
	ser, flood, arrive sim.Time
}

const batchSendAt = 100 * sim.Microsecond

// newBatchRig builds the rig; with crossDomain, host 4 lives in a domain of
// its own. sampled attaches a tracer that samples every flow.
func newBatchRig(t *testing.T, crossDomain, sampled bool) *batchRig {
	t.Helper()
	r := &batchRig{rec: telemetry.NewRecorder(256)}
	if crossDomain {
		r.engine = sim.NewEngine(2, 0)
		r.net = NewPartitioned(r.engine)
	} else {
		r.net = New(sim.NewScheduler())
	}
	r.sched = r.net.sched
	r.net.SetSeed(5)
	r.net.SetTelemetry(nil, r.rec)
	if sampled {
		r.tracer = trace.New(trace.Config{SampleRate: 1})
		r.net.SetTracer(r.tracer)
	}
	r.sw = r.net.NewSwitch("sw")
	cfg := LinkConfig{}
	host := func(i int) {
		dom := 0
		if crossDomain && i == 4 {
			dom = 1
		}
		nic := r.net.NewNodeInDomain(fmt.Sprintf("host%d", i), dom).AddNIC()
		o := &fakeOwner{nic: nic, addr: starAddr(i), neigh: map[packet.Addr]fakeEntry{}, log: &r.log}
		nic.SetHandlerCtx(o.handle)
		nic.SetARPInert(o.inert)
		r.nics = append(r.nics, nic)
		r.owners = append(r.owners, o)
		r.links = append(r.links, r.net.Connect(nic, r.sw.NewPort(), cfg))
	}
	for i := 0; i < 3; i++ {
		host(i)
	}
	r.y = r.net.NewNode("y").AddNIC()
	r.z = r.net.NewNode("z").AddNIC()
	r.net.Connect(r.y, r.z, cfg)
	r.z.SetHandler(func(raw []byte) {
		r.rec.Emit(r.sched.Now(), telemetry.CatExperiment, "y-to-z", "z", int64(len(raw)))
	})
	for i := 3; i < 5; i++ {
		host(i)
	}
	if r.engine != nil {
		la, _ := r.net.MinCrossDomainDelay()
		r.engine.SetLookahead(la)
	}
	req := r.request(starAddr(9))
	r.ser = r.links[0].serializationTime(len(req))
	r.flood = batchSendAt + r.ser + r.links[0].cfg.Delay
	r.arrive = r.flood + r.ser + r.links[0].cfg.Delay
	return r
}

// request is host 0's broadcast question about target.
func (r *batchRig) request(target packet.Addr) []byte {
	return arpFrame(r.nics[0], starAddr(0), packet.ARPRequest, target, packet.BroadcastMAC)
}

// at runs fn at instant t on host i's scheduler.
func (r *batchRig) at(i int, t sim.Time, fn func()) { r.nics[i].node.sched.At(t, fn) }

func (r *batchRig) run(horizon sim.Time) {
	if r.engine != nil {
		if err := r.engine.Run(horizon, 1); err != nil {
			panic(err)
		}
		return
	}
	r.sched.Run(horizon)
}

// fired counts the events every domain has run.
func (r *batchRig) fired() uint64 {
	if r.engine == nil {
		return r.sched.Fired()
	}
	var n uint64
	for i := 0; i < r.engine.NumDomains(); i++ {
		n += r.engine.Domain(i).Scheduler().Fired()
	}
	return n
}

// rx lists every host's received frames and bytes.
func (r *batchRig) rx() string {
	var out []string
	for _, nic := range r.nics {
		f, b, _, _ := nic.Stats()
		out = append(out, fmt.Sprintf("%d/%d", f, b))
	}
	return fmt.Sprint(out)
}

// transcript is everything a run shows: what the hosts received by the
// instant before the copies land, by that instant and in the end; every
// change the owners made; the flight recorder; the frame account of the
// network and of every link direction; the canonical spans.
func (r *batchRig) transcript() string {
	out := fmt.Sprintf("rx before %s\n", r.rx())
	r.run(r.arrive - 1)
	out += fmt.Sprintf("rx just before %s\n", r.rx())
	r.run(r.arrive)
	out += fmt.Sprintf("rx at arrival %s\n", r.rx())
	r.run(r.arrive + 50*sim.Millisecond)
	out += fmt.Sprintf("rx after %s\n", r.rx())
	for _, l := range r.log {
		out += l + "\n"
	}
	for _, ev := range r.rec.Events() {
		out += fmt.Sprintf("event %v %s %s %d\n", ev.Time, ev.Name, ev.Actor, ev.Value)
	}
	out += fmt.Sprintf("ledger %+v\n", r.net.Ledger())
	for _, l := range r.net.links {
		out += fmt.Sprintf("%s %+v %+v %+v\n", l, l.LedgerSide(0), l.LedgerSide(1), l.Counters())
	}
	if r.tracer != nil {
		for _, sp := range trace.CanonicalSpans(r.tracer.Spans()) {
			out += fmt.Sprintf("span %+v\n", sp)
		}
	}
	return out
}

// TestARPFloodBatch runs each case with flood batching off and on. The two
// transcripts must be equal, and batching must save exactly the events the
// case names: one per copy counted in the batch, less the batch's own.
func TestARPFloodBatch(t *testing.T) {
	cases := []struct {
		name        string
		crossDomain bool
		sampled     bool
		target      int               // host whose address is asked for; -1 for none
		setup       func(r *batchRig) // before the request is sent
		saved       uint64            // events batching saves
		rx          string            // if set, in the transcript with batching on
	}{
		{name: "every host passive", target: -1, saved: 3,
			rx: "rx just before [0/0 0/0 0/0 0/0 0/0]\nrx at arrival [0/0 1/42 1/42 1/42 1/42]\n"},
		{name: "the target holds the smallest key and answers", target: 1, saved: 3},
		{name: "the target answers at its own key", target: 3, saved: 2},
		{name: "a host waiting for the sender flushes", target: -1, saved: 2,
			setup: func(r *batchRig) {
				// At the copies' instant, before any of them lands.
				r.at(2, r.arrive, func() { r.owners[2].neigh[starAddr(0)] = fakeEntry{waiting: true} })
			}},
		{name: "a host holding another MAC for the sender learns", target: -1, saved: 2,
			setup: func(r *batchRig) { r.owners[4].neigh[starAddr(0)] = fakeEntry{mac: packet.MACFromUint64(0xbad)} }},
		{name: "a host holding the sender's MAC stays passive", target: -1, saved: 3,
			setup: func(r *batchRig) { r.owners[3].neigh[starAddr(0)] = fakeEntry{mac: r.nics[0].MAC()} }},
		{name: "a receiving side cut before arrival drops in the batch", target: -1, saved: 3,
			setup: func(r *batchRig) { r.at(3, r.arrive-1, func() { r.links[3].SetUpSide(0, false) }) }},
		{name: "a tap added before arrival sees its copy", target: -1, saved: 2,
			setup: func(r *batchRig) {
				r.at(4, r.arrive-1, func() {
					r.links[4].AddTap(func(at sim.Time, raw []byte, _ trace.Context) {
						r.rec.Emit(at, telemetry.CatExperiment, "tap", "host4", int64(len(raw)))
					})
				})
			}},
		{name: "an ingress filter added before arrival vets its copy", target: -1, saved: 2,
			setup: func(r *batchRig) {
				r.at(3, r.arrive-1, func() {
					r.nics[3].SetIngressFilterCtx(func(raw []byte, _ trace.Context) bool {
						r.rec.Emit(r.sched.Now(), telemetry.CatExperiment, "filter", "host3", int64(len(raw)))
						return false
					})
				})
			}},
		{name: "a corrupted copy arrives on its own", target: -1, saved: 2,
			setup: func(r *batchRig) {
				r.links[2].SetImpairmentsSide(1, Impairments{CorruptProb: 1, RNG: sim.NewRNG(13)})
			}},
		{name: "a handler installed after the answer gets every copy", target: -1, saved: 2,
			setup: func(r *batchRig) {
				r.nics[2].SetHandler(func(raw []byte) {
					r.log = append(r.log, fmt.Sprintf("%v host2 hears %d bytes", r.sched.Now(), len(raw)))
				})
			}},
		{name: "a copy landing later arrives on its own", target: -1, saved: 2,
			setup: func(r *batchRig) { r.links[4].cfg.Delay += sim.Millisecond }},
		{name: "a sampled request is not batched", target: -1, sampled: true, saved: 0},
		{name: "a copy crossing domains is posted on its own", target: -1, crossDomain: true, saved: 2},
		{name: "a busy port queues its copy", target: -1, saved: 2,
			setup: func(r *batchRig) {
				// Host 1 sends host 2 a frame the switch is still relaying
				// out port 2 when the request reaches it.
				r.sw.Learn(r.nics[2].MAC(), r.sw.ports[2])
				r.nics[1].Send(frame(r.nics[1].MAC(), r.nics[2].MAC(), 1000))
			}},
		{name: "a reordered frame landing with the copy keeps it out", target: -1, saved: 2,
			setup: func(r *batchRig) {
				// Host 1 asks host 3, claiming host 0's address under a
				// forged MAC; the switch relays the question at once and it
				// is held back to land at the copies' instant, ahead of host
				// 3's copy. Host 3 answers it and then learns host 0's real
				// MAC from the flooded request.
				forged := arpFrame(r.nics[1], starAddr(0), packet.ARPRequest, starAddr(3), r.nics[3].MAC())
				copy(forged[packet.EthernetHeaderLen+8:], []byte{0xf0, 0, 0, 0, 0, 0x0d})
				r.sw.Learn(r.nics[3].MAC(), r.sw.ports[3])
				reach := r.ser + r.links[1].cfg.Delay // from host 1 to the switch
				held := r.arrive - 2*reach
				r.links[3].SetImpairmentsSide(1, Impairments{ReorderProb: 1, ReorderDelay: held, RNG: sim.NewRNG(1)})
				r.at(3, r.flood-1, func() { r.links[3].SetImpairmentsSide(1, Impairments{}) })
				r.nics[1].Send(forged)
			}},
	}
	defer func() { batchARPFloods = true }()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var transcripts [2]string
			var fired [2]uint64
			for i, on := range []bool{false, true} {
				batchARPFloods = on
				r := newBatchRig(t, tc.crossDomain, tc.sampled)
				if tc.setup != nil {
					tc.setup(r)
				}
				target := starAddr(9)
				if tc.target >= 0 {
					target = starAddr(tc.target)
				}
				r.at(0, batchSendAt, func() {
					origin := r.tracer.Origin(r.sched.Now(), trace.Flow{Src: starAddr(0).Uint32()}, "arp-tx", "host0")
					r.nics[0].SendCtx(r.request(target), origin)
					origin.Finish(r.sched.Now())
				})
				r.at(0, r.flood, func() { r.y.Send(frame(r.y.MAC(), r.z.MAC(), 28)) })
				transcripts[i] = r.transcript()
				fired[i] = r.fired()
			}
			if !strings.Contains(transcripts[1], tc.rx) {
				t.Errorf("want %q in the batched run's transcript:\n%s", tc.rx, transcripts[1])
			}
			if transcripts[0] != transcripts[1] {
				t.Fatalf("batching changed the run:\n--- off\n%s--- on\n%s", transcripts[0], transcripts[1])
			}
			if fired[0]-fired[1] != tc.saved {
				t.Fatalf("batching fired %d events, %d without it: saved %d, want %d\n%s",
					fired[1], fired[0], fired[0]-fired[1], tc.saved, transcripts[1])
			}
		})
	}
}

// checkLedgers requires the network's frame account and every link
// direction's to balance.
func checkLedgers(t *testing.T, n *Network, when string) {
	t.Helper()
	var inFlight uint64
	for _, l := range n.links {
		for side := 0; side < 2; side++ {
			lg := l.LedgerSide(side)
			if lg.Offered+lg.Duplicated != lg.Delivered+lg.QueueDrops+lg.LossDrops+lg.CutDrops+lg.InFlight() {
				t.Errorf("%s: %s side %d: %+v does not balance", when, l, side, lg)
			}
			inFlight += lg.InFlight()
		}
	}
	if f := n.Ledger(); f.Sent+f.Copies-f.Released != f.InFlight || f.InFlight != inFlight {
		t.Errorf("%s: network ledger %+v, links hold %d in flight", when, f, inFlight)
	}
}

// TestARPFloodBatchSettlesEveryMember floods one request in a recycled
// buffer while three of its four copies leave the batch's common path:
// host 1's side is unplugged before the copies land, host 2's port is busy
// and queues its copy, and host 3's link duplicates it. Host 4 is settled
// in the batch. Batching must change nothing but the events: host 1's
// in-flight drop settles in the batch with host 4, and hosts 2 and 3 get
// their copies at their own keys, in buffers of their own. The race build
// poisons a released frame, so a queued copy still borrowing the batch's
// buffer, which is released once the batch fires, would reach host 2's tap
// as poison.
func TestARPFloodBatchSettlesEveryMember(t *testing.T) {
	defer func() { batchARPFloods = true }()
	var transcripts [2]string
	var fired [2]uint64
	for i, on := range []bool{false, true} {
		batchARPFloods = on
		r := newBatchRig(t, false, false)
		want := r.request(starAddr(9))
		r.sw.Learn(r.nics[2].MAC(), r.sw.ports[2])
		r.nics[1].Send(frame(r.nics[1].MAC(), r.nics[2].MAC(), 1000))
		r.at(1, r.arrive-1, func() { r.links[1].SetUpSide(0, false) })
		r.links[3].SetImpairmentsSide(1, Impairments{DupProb: 1, RNG: sim.NewRNG(3)})
		requests := 0
		r.links[2].AddTap(func(_ sim.Time, raw []byte, _ trace.Context) {
			if len(raw) == len(want) {
				requests++
				if !bytes.Equal(raw, want) {
					t.Errorf("host 2's copy reads % x, want % x", raw, want)
				}
			}
		})
		r.at(0, batchSendAt, func() { r.nics[0].Send(packet.CloneFrame(want)) })
		r.run(r.flood)
		if q := r.links[2].LedgerSide(1).Queued; q != 1 {
			t.Fatalf("host 2's port holds %d frames in its queue as the request floods, want 1", q)
		}
		checkLedgers(t, r.net, "as the request floods")
		r.run(r.arrive - 1)
		checkLedgers(t, r.net, "before the copies land")
		transcripts[i] = r.transcript()
		fired[i] = r.fired()
		checkLedgers(t, r.net, "drained")
		if requests != 1 {
			t.Errorf("host 2 received %d copies of the request, want 1", requests)
		}
		if got := r.links[1].LedgerSide(1).CutDrops; got != 1 {
			t.Errorf("host 1's direction cut %d copies in flight, want 1", got)
		}
		if got := r.links[3].LedgerSide(1); got.Duplicated != 1 || got.Delivered != 2 {
			t.Errorf("host 3's direction %+v: want one duplicate and two deliveries", got)
		}
		if f := r.net.Ledger(); f.Sent != 2 || f.Copies != 4 {
			t.Errorf("ledger %+v: want the request and host 1's frame sent, three flood copies and one duplicate", f)
		}
	}
	if transcripts[0] != transcripts[1] {
		t.Fatalf("batching changed the run:\n--- off\n%s--- on\n%s", transcripts[0], transcripts[1])
	}
	// The batch stands for host 1's drop and host 4's delivery.
	if saved := fired[0] - fired[1]; saved != 1 {
		t.Fatalf("batching fired %d events, %d without it: saved %d, want 1\n%s", fired[1], fired[0], saved, transcripts[1])
	}
}
