package netsim

import (
	"reflect"
	"testing"
	"testing/quick"

	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

// frame builds a minimal Ethernet frame with an n-byte payload.
func frame(src, dst packet.MAC, n int) []byte {
	eth := packet.Ethernet{Dst: dst, Src: src, Type: packet.EtherTypeIPv4}
	b := eth.Marshal(nil)
	return append(b, make([]byte, n)...)
}

func twoNodes(t *testing.T, cfg LinkConfig) (*sim.Scheduler, *NIC, *NIC) {
	t.Helper()
	s := sim.NewScheduler()
	net := New(s)
	net.SetSeed(1) // roots the loss streams of a lossy cfg
	a := net.NewNode("a").AddNIC()
	b := net.NewNode("b").AddNIC()
	net.Connect(a, b, cfg)
	return s, a, b
}

// setLinkUp raises or cuts both sides of l, as a cable pulled at both ends.
func setLinkUp(l *Link, up bool) {
	l.SetUpSide(0, up)
	l.SetUpSide(1, up)
}

// impairBoth installs im on both directions of l, each drawing from a
// stream of its own split off im.RNG (when set).
func impairBoth(l *Link, im Impairments) {
	for side := range l.dirs {
		sideIm := im
		if im.RNG != nil {
			sideIm.RNG = sim.NewRNG(im.RNG.Int63())
		}
		l.SetImpairmentsSide(side, sideIm)
	}
}

func TestLinkDeliversFrame(t *testing.T) {
	s, a, b := twoNodes(t, LinkConfig{})
	var got []byte
	b.SetHandler(func(raw []byte) { got = raw })
	f := frame(a.MAC(), b.MAC(), 100)
	a.Send(f)
	s.Drain()
	if got == nil {
		t.Fatal("frame not delivered")
	}
	if len(got) != len(f) {
		t.Fatalf("delivered %d bytes, want %d", len(got), len(f))
	}
}

func TestLinkLatencyModel(t *testing.T) {
	// 1000-byte frame at 1 Mb/s: serialization 8 ms, plus 2 ms propagation.
	s, a, b := twoNodes(t, LinkConfig{RateBps: 1_000_000, Delay: 2 * sim.Millisecond})
	var at sim.Time
	b.SetHandler(func(raw []byte) { at = s.Now() })
	f := frame(a.MAC(), b.MAC(), 1000-packet.EthernetHeaderLen)
	a.Send(f)
	s.Drain()
	want := 8*sim.Millisecond + 2*sim.Millisecond
	if at != want {
		t.Fatalf("arrival at %v, want %v", at, want)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	// Two 1000-byte frames at 1 Mb/s: second arrives one serialization
	// time after the first (transmitter busy).
	s, a, b := twoNodes(t, LinkConfig{RateBps: 1_000_000, Delay: sim.Millisecond})
	var arrivals []sim.Time
	b.SetHandler(func(raw []byte) { arrivals = append(arrivals, s.Now()) })
	f := frame(a.MAC(), b.MAC(), 1000-packet.EthernetHeaderLen)
	a.Send(f)
	a.Send(f)
	s.Drain()
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(arrivals))
	}
	if gap := arrivals[1] - arrivals[0]; gap != 8*sim.Millisecond {
		t.Fatalf("inter-arrival gap = %v, want 8ms", gap)
	}
}

func TestLinkDropTailQueue(t *testing.T) {
	// Queue capacity 2000 bytes: the first frame transmits immediately,
	// two queue, the rest drop.
	s, a, b := twoNodes(t, LinkConfig{RateBps: 1_000_000, QueueBytes: 2000})
	delivered := 0
	b.SetHandler(func(raw []byte) { delivered++ })
	f := frame(a.MAC(), b.MAC(), 1000-packet.EthernetHeaderLen)
	for i := 0; i < 10; i++ {
		a.Send(f)
	}
	s.Drain()
	if delivered != 3 {
		t.Fatalf("delivered %d frames, want 3 (1 in flight + 2 queued)", delivered)
	}
	if drops := a.link.Counters().Drops(); drops != 7 {
		t.Fatalf("drops = %d, want 7", drops)
	}
}

func TestLinkRandomLoss(t *testing.T) {
	s, a, b := twoNodes(t, LinkConfig{LossProb: 0.5})
	delivered := 0
	b.SetHandler(func(raw []byte) { delivered++ })
	f := frame(a.MAC(), b.MAC(), 64)
	const n = 1000
	for i := 0; i < n; i++ {
		a.Send(f)
	}
	s.Drain()
	if delivered < 400 || delivered > 600 {
		t.Fatalf("delivered %d/%d with 50%% loss", delivered, n)
	}
}

func TestLinkDownDropsTraffic(t *testing.T) {
	s, a, b := twoNodes(t, LinkConfig{})
	delivered := 0
	b.SetHandler(func(raw []byte) { delivered++ })
	setLinkUp(a.link, false)
	a.Send(frame(a.MAC(), b.MAC(), 64))
	s.Drain()
	if delivered != 0 {
		t.Fatal("frame delivered over a down link")
	}
	setLinkUp(a.link, true)
	a.Send(frame(a.MAC(), b.MAC(), 64))
	s.Drain()
	if delivered != 1 {
		t.Fatal("frame lost after link restored")
	}
}

func TestUnattachedNICDoesNotPanic(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	nic := net.NewNode("lone").AddNIC()
	nic.Send(frame(nic.MAC(), packet.BroadcastMAC, 10)) // must not panic
	s.Drain()
}

func TestNICStats(t *testing.T) {
	s, a, b := twoNodes(t, LinkConfig{})
	b.SetHandler(func(raw []byte) {})
	f := frame(a.MAC(), b.MAC(), 86) // 100 bytes on the wire
	a.Send(f)
	a.Send(f)
	s.Drain()
	_, _, txF, txB := a.Stats()
	rxF, rxB, _, _ := b.Stats()
	if txF != 2 || txB != 200 {
		t.Fatalf("a tx = %d frames / %d bytes", txF, txB)
	}
	if rxF != 2 || rxB != 200 {
		t.Fatalf("b rx = %d frames / %d bytes", rxF, rxB)
	}
}

func TestTapSeesDeliveredFrames(t *testing.T) {
	s, a, b := twoNodes(t, LinkConfig{})
	b.SetHandler(func(raw []byte) {})
	var tapped []sim.Time
	a.link.AddTap(func(at sim.Time, raw []byte, _ trace.Context) { tapped = append(tapped, at) })
	a.Send(frame(a.MAC(), b.MAC(), 64))
	s.Drain()
	if len(tapped) != 1 {
		t.Fatalf("tap saw %d frames, want 1", len(tapped))
	}
}

func buildStar(t *testing.T) (*sim.Scheduler, *Switch, []*NIC) {
	t.Helper()
	s := sim.NewScheduler()
	net := New(s)
	sw := net.NewSwitch("sw0")
	nics := make([]*NIC, 4)
	for i := range nics {
		nics[i] = net.NewNode("host").AddNIC()
		net.Connect(nics[i], sw.NewPort(), LinkConfig{})
	}
	return s, sw, nics
}

func TestSwitchFloodsUnknownThenLearns(t *testing.T) {
	s, sw, nics := buildStar(t)
	counts := make([]int, len(nics))
	for i, nic := range nics {
		i := i
		nic.SetHandler(func(raw []byte) { counts[i]++ })
	}
	// First frame 0->1: destination unknown, flooded to 1,2,3.
	nics[0].Send(frame(nics[0].MAC(), nics[1].MAC(), 64))
	s.Drain()
	if counts[1] != 1 || counts[2] != 1 || counts[3] != 1 {
		t.Fatalf("flood counts = %v", counts)
	}
	// Reply 1->0: 1's frame teaches the switch where 0 is... 0 was already
	// learned from the first frame, so this goes only to 0.
	nics[1].Send(frame(nics[1].MAC(), nics[0].MAC(), 64))
	s.Drain()
	if counts[0] != 1 || counts[2] != 1 || counts[3] != 1 {
		t.Fatalf("after learned unicast, counts = %v", counts)
	}
	// Now 0->1 again: learned, delivered only to 1.
	nics[0].Send(frame(nics[0].MAC(), nics[1].MAC(), 64))
	s.Drain()
	if counts[1] != 2 || counts[2] != 1 || counts[3] != 1 {
		t.Fatalf("after second frame, counts = %v", counts)
	}
	fwd, flooded := sw.Stats()
	if fwd != 2 || flooded != 1 {
		t.Fatalf("switch stats forwarded=%d flooded=%d, want 2/1", fwd, flooded)
	}
}

func TestSwitchBroadcast(t *testing.T) {
	s, _, nics := buildStar(t)
	counts := make([]int, len(nics))
	for i, nic := range nics {
		i := i
		nic.SetHandler(func(raw []byte) { counts[i]++ })
	}
	nics[2].Send(frame(nics[2].MAC(), packet.BroadcastMAC, 64))
	s.Drain()
	if counts[0] != 1 || counts[1] != 1 || counts[3] != 1 || counts[2] != 0 {
		t.Fatalf("broadcast counts = %v", counts)
	}
}

// TestTapsFireInRegistrationOrder: a link's taps see every frame in the
// order they were added, each with the frame's trace context
// (zero here: nothing is sampled).
func TestTapsFireInRegistrationOrder(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	sw := net.NewSwitch("sw")
	a, b := net.NewNode("a").AddNIC(), net.NewNode("b").AddNIC()
	link := net.Connect(a, sw.NewPort(), LinkConfig{})
	net.Connect(b, sw.NewPort(), LinkConfig{})
	b.SetHandler(func([]byte) {})
	var order []string
	tap := func(name string) Tap {
		return func(_ sim.Time, _ []byte, tc trace.Context) {
			if tc.Sampled() {
				t.Errorf("%s: unsampled frame carries a sampled context", name)
			}
			order = append(order, name)
		}
	}
	link.AddTap(tap("link-1"))
	link.AddTap(tap("link-2"))
	a.Send(packet.BuildUDP(a.MAC(), b.MAC(),
		packet.IPv4{TTL: 64, Src: packet.AddrFrom4(10, 0, 0, 1), Dst: packet.AddrFrom4(10, 0, 0, 2)},
		packet.UDP{SrcPort: 1, DstPort: 2}, []byte("x")))
	s.Drain()
	want := []string{"link-1", "link-2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("taps fired %v, want %v", order, want)
	}
}

func TestNodeNaming(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	n1 := net.NewNode("dev")
	n2 := net.NewNode("dev") // duplicate gets suffixed
	if n1.name == n2.name {
		t.Fatalf("duplicate node names: %q vs %q", n1.name, n2.name)
	}
	if len(net.Nodes()) != 2 {
		t.Fatalf("Nodes() = %d", len(net.Nodes()))
	}
}

func TestMultiNICNode(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	router := net.NewNode("router")
	n0, n1 := router.AddNIC(), router.AddNIC()
	if nics := router.NICs(); len(nics) != 2 || nics[0] != n0 || nics[1] != n1 {
		t.Fatal("NIC indexing broken")
	}
	if n0.MAC() == n1.MAC() {
		t.Fatal("NICs share a MAC")
	}
	if len(router.NICs()) != 2 {
		t.Fatal("NICs() length")
	}
}

// Property: on a single link, every sent frame is either delivered,
// dropped at the queue, or lost to random loss — nothing vanishes and
// nothing is duplicated.
func TestLinkConservationProperty(t *testing.T) {
	f := func(sizes []uint8, lossSeed int64) bool {
		if len(sizes) == 0 {
			return true
		}
		s := sim.NewScheduler()
		net := New(s)
		net.SetSeed(lossSeed)
		a := net.NewNode("a").AddNIC()
		b := net.NewNode("b").AddNIC()
		net.Connect(a, b, LinkConfig{
			RateBps:    1_000_000,
			QueueBytes: 4096,
			LossProb:   0.1,
		})
		delivered := 0
		b.SetHandler(func(raw []byte) { delivered++ })
		for _, sz := range sizes {
			a.Send(frame(a.MAC(), b.MAC(), int(sz)))
		}
		s.Drain()
		c := a.link.Counters()
		return uint64(delivered) == c.TxFrames-a.link.dirs[0].lossFrames.Value() &&
			uint64(delivered)+c.Drops() == uint64(len(sizes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
