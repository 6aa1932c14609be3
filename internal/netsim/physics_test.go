package netsim

import (
	"math"
	"testing"

	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// The link and switch model checked against arithmetic: every expected value
// below is computed from the configuration in the test, never recorded from
// a run. A frame of L bytes on a link of R bit/s and one-way delay d takes
// L·8/R to serialize and d to propagate.

// physicsLink is the link every check below uses: 10 Mb/s, 3 ms, so a
// 1000-byte frame serializes in exactly 800 µs.
const (
	physicsRate  = 10_000_000
	physicsDelay = 3 * sim.Millisecond
	physicsLen   = 1000
)

// serialize is L·8/R for an L-byte frame on the physics link.
func serialize(l int) sim.Time {
	return sim.Time(int64(l) * 8 * int64(sim.Second) / physicsRate)
}

// arrivals sends k back-to-back L-byte frames from a to b at time 0 over
// cfg and returns when each arrived.
func arrivals(t *testing.T, cfg LinkConfig, k int) []sim.Time {
	t.Helper()
	s, a, b := twoNodes(t, cfg)
	var at []sim.Time
	b.SetHandler(func([]byte) { at = append(at, s.Now()) })
	for i := 0; i < k; i++ {
		a.Send(frame(a.MAC(), b.MAC(), physicsLen-packet.EthernetHeaderLen))
	}
	s.Drain()
	return at
}

// TestIdleLinkArrival: one frame on an idle link arrives at L·8/R + d.
func TestIdleLinkArrival(t *testing.T) {
	at := arrivals(t, LinkConfig{RateBps: physicsRate, Delay: physicsDelay}, 1)
	want := serialize(physicsLen) + physicsDelay
	if len(at) != 1 || at[0] != want {
		t.Fatalf("arrivals %v, want one at L·8/R + d = %v", at, want)
	}
}

// TestBurstLeavesAtLineRate: the i-th frame of a k-frame burst (i from 1)
// finishes serializing at i·L·8/R, so the last leaves at k·L·8/R and
// arrives d later.
func TestBurstLeavesAtLineRate(t *testing.T) {
	const k = 20
	at := arrivals(t, LinkConfig{RateBps: physicsRate, Delay: physicsDelay, QueueBytes: k * physicsLen}, k)
	if len(at) != k {
		t.Fatalf("%d of %d frames arrived", len(at), k)
	}
	for i, got := range at {
		if want := sim.Time(i+1)*serialize(physicsLen) + physicsDelay; got != want {
			t.Fatalf("frame %d arrived at %v, want (i+1)·L·8/R + d = %v", i+1, got, want)
		}
	}
}

// TestDropTailOverflow: N back-to-back frames into a queue of Q frames. The
// first goes straight onto the wire, Q wait, and the other N − Q − 1 are
// dropped.
func TestDropTailOverflow(t *testing.T) {
	const n, q = 50, 8
	s, a, b := twoNodes(t, LinkConfig{RateBps: physicsRate, Delay: physicsDelay, QueueBytes: q * physicsLen})
	got := 0
	b.SetHandler(func([]byte) { got++ })
	for i := 0; i < n; i++ {
		a.Send(frame(a.MAC(), b.MAC(), physicsLen-packet.EthernetHeaderLen))
	}
	s.Drain()
	if drops := a.link.Counters().QueueDrops; drops != n-q-1 || got != q+1 {
		t.Fatalf("%d dropped and %d delivered of %d, want N − Q − 1 = %d dropped and Q + 1 = %d delivered",
			drops, got, n, n-q-1, q+1)
	}
}

// TestBernoulliLoss: with loss probability p, the frames lost of n sent
// are binomial: within 4σ = 4·√(np(1−p)) of np.
func TestBernoulliLoss(t *testing.T) {
	const n, p = 100_000, 0.05
	s, a, b := twoNodes(t, LinkConfig{RateBps: 1_000_000_000, Delay: physicsDelay, QueueBytes: n * 64, LossProb: p})
	got := 0
	b.SetHandler(func([]byte) { got++ })
	for i := 0; i < n; i++ {
		a.Send(frame(a.MAC(), b.MAC(), 64-packet.EthernetHeaderLen))
	}
	s.Drain()
	lost := n - got
	mean, sigma := n*p, math.Sqrt(n*p*(1-p))
	if math.Abs(float64(lost)-mean) > 4*sigma {
		t.Fatalf("lost %d of %d at p = %v, want within 4σ of np: %.0f ± %.0f", lost, n, p, mean, 4*sigma)
	}
	if c := a.link.Counters().LossFrames; c != uint64(lost) {
		t.Fatalf("loss counter %d, but %d frames did not arrive", c, lost)
	}
}

// TestUnknownUnicastFloods: a unicast to an address the switch has not
// learned leaves on every port but the one it came in on, ports − 1 copies.
func TestUnknownUnicastFloods(t *testing.T) {
	const ports = 7
	s := sim.NewScheduler()
	net := New(s)
	sw := net.NewSwitch("sw0")
	nics := make([]*NIC, ports)
	rx := make([]int, ports)
	for i := range nics {
		nics[i] = net.NewNode("host").AddNIC()
		net.Connect(nics[i], sw.NewPort(), LinkConfig{})
		nics[i].SetHandler(func([]byte) { rx[i]++ })
	}
	nics[0].Send(frame(nics[0].MAC(), packet.MACFromUint64(0xdead), 64))
	s.Drain()
	copies := 0
	for _, n := range rx[1:] {
		if n != 1 {
			t.Fatalf("receptions per host %v, want one at every host but the sender", rx)
		}
		copies += n
	}
	if fwd, fld := sw.Stats(); rx[0] != 0 || copies != ports-1 || fld != 1 || fwd != 0 {
		t.Fatalf("sender got %d, others %d copies, switch forwarded %d flooded %d; want 0, ports − 1 = %d, 0, 1",
			rx[0], copies, fwd, fld, ports-1)
	}
}
