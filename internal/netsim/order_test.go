package netsim

import (
	"fmt"
	"slices"
	"testing"

	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// TestSameInstantDeliveryOrder pins the order of frames that land in one
// nanosecond: link creation index, then direction, then send sequence —
// whatever order they were sent, scheduled or merged in — on a serial
// network and on one split over two domains. Every assertion names the
// order it expects; none compares the two runs with each other.
func TestSameInstantDeliveryOrder(t *testing.T) {
	for _, domains := range []int{1, 2} {
		t.Run(fmt.Sprintf("domains=%d", domains), func(t *testing.T) { sameInstantDeliveryOrder(t, domains) })
	}
}

func sameInstantDeliveryOrder(t *testing.T, domains int) {
	var (
		net    *Network
		engine *sim.Engine
		sched  *sim.Scheduler
	)
	if domains > 1 {
		engine = sim.NewEngine(domains, 0)
		net = NewPartitioned(engine)
	} else {
		sched = sim.NewScheduler()
		net = New(sched)
	}
	cfg := LinkConfig{Delay: sim.Millisecond}
	const (
		payload = 100
		round1  = 1 * sim.Millisecond
		round2  = 50 * sim.Millisecond
		round3  = 100 * sim.Millisecond
	)
	// frame's last byte tells copies of one size apart.
	marked := func(src, dst packet.MAC, mark byte) []byte {
		f := frame(src, dst, payload)
		f[len(f)-1] = mark
		return f
	}

	// Links 0–3: four leaves on one switch, alternating domains, so the
	// switch (domain 0) hears leaves 0 and 2 over same-domain links, whose
	// deliveries are inserted at send time, and leaves 1 and 3 over
	// cross-domain ones, inserted at the next epoch barrier.
	sw := net.NewSwitchInDomain("sw", 0)
	leaves := make([]*NIC, 4)
	got := make([][]byte, len(leaves)) // marks each leaf received, in order
	for i := range leaves {
		leaves[i] = net.NewNodeInDomain(fmt.Sprintf("leaf%d", i), i%2).AddNIC()
		net.Connect(leaves[i], sw.NewPort(), cfg)
		leaves[i].SetHandler(func(raw []byte) { got[i] = append(got[i], raw[len(raw)-1]) })
	}

	// Link 4: two hosts of one domain wired back to back; both directions
	// deliver into the same scheduler.
	a := net.NewNodeInDomain("a", 1).AddNIC()
	b := net.NewNodeInDomain("b", 1).AddNIC()
	net.Connect(a, b, cfg)
	var pair []string
	a.SetHandler(func([]byte) { pair = append(pair, "b->a") })
	b.SetHandler(func([]byte) { pair = append(pair, "a->b") })

	// Link 5: every frame from c arrives at d twice.
	c := net.NewNodeInDomain("c", 1).AddNIC()
	d := net.NewNodeInDomain("d", 0).AddNIC()
	dupLink := net.Connect(c, d, cfg)
	dupLink.SetImpairmentsSide(0, Impairments{DupProb: 1, RNG: sim.NewRNG(5)})
	var dups []string
	d.SetHandler(func(raw []byte) {
		dups = append(dups, fmt.Sprintf("%d@%v", raw[len(raw)-1], d.Node().Scheduler().Now()-round1))
	})

	at := func(nic *NIC, when sim.Time, raw []byte) {
		nic.Node().Scheduler().At(when, func() { nic.Send(raw) })
	}
	// Round 1: equal-sized broadcasts from every leaf at one instant, sent
	// in the reverse of link order.
	for i := len(leaves) - 1; i >= 0; i-- {
		at(leaves[i], round1, marked(leaves[i].MAC(), packet.BroadcastMAC, byte(10+i)))
	}
	at(b, round1, marked(b.MAC(), a.MAC(), 0))
	at(a, round1, marked(a.MAC(), b.MAC(), 0))
	// Two frames back to back: the first's duplicate and the second's
	// original share an arrival instant.
	at(c, round1, marked(c.MAC(), d.MAC(), 1))
	at(c, round1, marked(c.MAC(), d.MAC(), 2))
	// Round 2: leaves 2 and 1 (in that sending order) claim one source MAC at
	// the same instant; the switch keeps whichever it processed last.
	claimed := packet.MACFromUint64(0xc1a1)
	at(leaves[2], round2, marked(claimed, leaves[0].MAC(), 22))
	at(leaves[1], round2, marked(claimed, leaves[0].MAC(), 21))
	// Round 3: a frame for that MAC follows the learned port.
	at(leaves[0], round3, marked(leaves[0].MAC(), claimed, 30))

	const horizon = 200 * sim.Millisecond
	if engine != nil {
		la, ok := net.MinCrossDomainDelay()
		if !ok {
			t.Fatal("no cross-domain link in the partitioned build")
		}
		engine.SetLookahead(la)
		if err := engine.Run(horizon, domains); err != nil {
			t.Fatal(err)
		}
	} else if err := sched.Run(horizon); err != nil {
		t.Fatal(err)
	}

	// A leaf hears the frames one instant brought to the switch in the
	// order the switch processed them.
	if want := []byte{11, 12, 13, 21, 22}; !slices.Equal(got[0], want) {
		t.Errorf("leaf0 heard marks %v, want %v: link order within an instant, not sending order", got[0], want)
	}
	if want := []byte{10, 11, 12}; !slices.Equal(got[3], want) {
		t.Errorf("leaf3 heard marks %v, want %v: link order within an instant, not sending order", got[3], want)
	}
	if want := []string{"a->b", "b->a"}; !slices.Equal(pair, want) {
		t.Errorf("back-to-back pair delivered %v, want %v: direction 0 first", pair, want)
	}
	ser := sim.Time(len(marked(c.MAC(), d.MAC(), 0))) * 8 * sim.Second / 100_000_000
	first := ser + cfg.Delay
	want := []string{
		fmt.Sprintf("1@%v", first),
		fmt.Sprintf("1@%v", first+ser), // the duplicate: sent second, so before…
		fmt.Sprintf("2@%v", first+ser), // …the next original, sent third
		fmt.Sprintf("2@%v", first+2*ser),
	}
	if !slices.Equal(dups, want) {
		t.Errorf("duplicating link delivered %v, want %v: send sequence within an instant", dups, want)
	}
	// Leaf 2 spoke last in round 2, so it owns the claimed MAC: round 3's
	// frame reaches it and not leaf 1.
	if slices.Contains(got[1], 30) || !slices.Contains(got[2], 30) {
		t.Errorf("frame for the twice-claimed MAC: leaf1 got %v, leaf2 got %v; want it at leaf2 (the higher link index learned last)", got[1], got[2])
	}
}
