package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// pdesStarResult captures everything observable about one run of the star
// topology: per-receiver delivery logs (arrival time, frame length) plus
// aggregate switch counters.
type pdesStarResult struct {
	deliveries [][]string
	forwarded  uint64
	flooded    uint64
}

// runPDESStar builds leaves nodes hanging off one switch, blasts frames
// between the leaves on a deterministic schedule, and runs to the horizon.
// With domains <= 1 the network is serial; otherwise the switch lives in
// domain 0 and leaf i in domain 1 + i%(domains-1), exercising the
// cross-domain arrival path in both directions through the switch.
func runPDESStar(t *testing.T, leaves, domains, workers int) pdesStarResult {
	t.Helper()
	return runPDESStarCfg(t, leaves, domains, workers, LinkConfig{Delay: sim.Millisecond}, Impairments{})
}

// runPDESStarCfg is runPDESStar with the leaf uplink config and an optional
// impairment set (installed on every uplink before the run) under test
// control, so lossy and impaired cross-domain links get the same
// serial-vs-partitioned identity treatment as clean ones. Per-run RNG state
// is created inside, so every invocation sees identical streams.
func runPDESStarCfg(t *testing.T, leaves, domains, workers int, cfg LinkConfig, im Impairments) pdesStarResult {
	t.Helper()
	const horizon = 200 * sim.Millisecond
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
	domainOf := func(leaf int) int {
		if domains <= 1 {
			return 0
		}
		return 1 + leaf%(domains-1)
	}
	net.SetSeed(99) // roots the keyed loss streams when cfg.RNG is nil
	sw := net.NewSwitch("sw0")
	if im.Active() {
		im.RNG = sim.NewRNG(4242)
	}
	nics := make([]*NIC, leaves)
	res := pdesStarResult{deliveries: make([][]string, leaves)}
	for i := 0; i < leaves; i++ {
		i := i
		node := net.NewNodeInDomain(fmt.Sprintf("leaf%d", i), domainOf(i))
		nics[i] = node.AddNIC()
		l := net.Connect(nics[i], sw.NewPort(), cfg)
		if im.Active() {
			impairBoth(l, im)
		}
		nics[i].SetHandler(func(raw []byte) {
			res.deliveries[i] = append(res.deliveries[i],
				fmt.Sprintf("%d:%d", node.Scheduler().Now(), len(raw)))
		})
	}
	// Each leaf streams frames to the next leaf; frame sizes vary so queue
	// and serialization interact. The first frame per sender floods (its
	// destination MAC is unlearned), later ones forward.
	for i := 0; i < leaves; i++ {
		i := i
		src, dst := nics[i], nics[(i+1)%leaves]
		sched := src.Node().Scheduler()
		for k := 0; k < 40; k++ {
			k := k
			sched.At(sim.Time(i+1)*sim.Millisecond+sim.Time(k)*3*sim.Millisecond, func() {
				eth := packet.Ethernet{Dst: dst.MAC(), Src: src.MAC(), Type: packet.EtherTypeIPv4}
				raw := eth.Marshal(nil)
				raw = append(raw, make([]byte, 50+(i*37+k*11)%400)...)
				src.Send(raw)
			})
		}
	}
	if engine != nil {
		la, ok := net.MinCrossDomainDelay()
		if !ok {
			t.Fatal("expected cross-domain links in partitioned star")
		}
		engine.SetLookahead(la)
		if err := engine.Run(horizon, workers); err != nil {
			t.Fatal(err)
		}
	} else {
		sched.Run(horizon)
	}
	res.forwarded, res.flooded = sw.Stats()
	return res
}

// TestPartitionedStarMatchesSerial pins the core netsim PDES property: the
// same topology and send schedule produce identical deliveries, arrival
// instants and switch behavior whether executed serially, partitioned into
// a few domains, or partitioned with parallel workers.
func TestPartitionedStarMatchesSerial(t *testing.T) {
	const leaves = 6
	want := runPDESStar(t, leaves, 1, 1)
	var total int
	for _, d := range want.deliveries {
		total += len(d)
	}
	if total == 0 {
		t.Fatal("serial baseline delivered nothing")
	}
	for _, tc := range []struct{ domains, workers int }{
		{3, 1}, {3, 3}, {4, 4}, {7, 4},
	} {
		got := runPDESStar(t, leaves, tc.domains, tc.workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("domains=%d workers=%d diverged from serial:\ngot  %+v\nwant %+v",
				tc.domains, tc.workers, got, want)
		}
	}
}

func TestMinCrossDomainDelay(t *testing.T) {
	e := sim.NewEngine(2, 0)
	net := NewPartitioned(e)
	a := net.NewNodeInDomain("a", 0)
	b := net.NewNodeInDomain("b", 1)
	c := net.NewNodeInDomain("c", 1)
	if _, ok := net.MinCrossDomainDelay(); ok {
		t.Fatal("no links yet: want ok=false")
	}
	// Same-domain link must not contribute.
	net.Connect(b.AddNIC(), c.AddNIC(), LinkConfig{Delay: sim.Microsecond})
	if _, ok := net.MinCrossDomainDelay(); ok {
		t.Fatal("same-domain link should not count as cross-domain")
	}
	net.Connect(a.AddNIC(), b.AddNIC(), LinkConfig{Delay: 5 * sim.Millisecond})
	net.Connect(a.AddNIC(), c.AddNIC(), LinkConfig{Delay: 2 * sim.Millisecond})
	if la, ok := net.MinCrossDomainDelay(); !ok || la != 2*sim.Millisecond {
		t.Fatalf("lookahead = %v, %v; want 2ms, true", la, ok)
	}
}

// TestCrossDomainLossMatchesSerial replaces the old "loss rejected in
// partitioned mode" pin: every leaf uplink is cross-domain AND lossy, and
// the delivery logs (instants, sizes, switch counters) must still be
// byte-identical to the serial run. The loss streams are keyed by
// (network seed, link index, direction), so the drop pattern cannot depend
// on how domains interleave.
func TestCrossDomainLossMatchesSerial(t *testing.T) {
	const leaves = 6
	cfg := LinkConfig{Delay: sim.Millisecond, LossProb: 0.3}
	want := runPDESStarCfg(t, leaves, 1, 1, cfg, Impairments{})
	var total int
	for _, d := range want.deliveries {
		total += len(d)
	}
	if total == 0 || total >= leaves*40 {
		t.Fatalf("loss inactive: %d of %d frames delivered", total, leaves*40)
	}
	for _, tc := range []struct{ domains, workers int }{
		{3, 1}, {4, 4}, {7, 4},
	} {
		got := runPDESStarCfg(t, leaves, tc.domains, tc.workers, cfg, Impairments{})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("domains=%d workers=%d lossy run diverged from serial:\ngot  %+v\nwant %+v",
				tc.domains, tc.workers, got, want)
		}
	}
}

// TestCrossDomainImpairmentsMatchSerial replaces the old "impairments
// rejected in partitioned mode" pin: loss, corruption, duplication and
// reordering are all armed on cross-domain links, with per-direction RNG
// streams split off one shared spec RNG at install time. The sender's
// domain draws every impairment decision before the frame crosses the
// epoch barrier, so partitioned runs replay the serial one exactly.
func TestCrossDomainImpairmentsMatchSerial(t *testing.T) {
	const leaves = 6
	cfg := LinkConfig{Delay: sim.Millisecond}
	im := Impairments{LossProb: 0.1, CorruptProb: 0.1, DupProb: 0.1, ReorderProb: 0.1}
	want := runPDESStarCfg(t, leaves, 1, 1, cfg, im)
	var total int
	for _, d := range want.deliveries {
		total += len(d)
	}
	if total == 0 {
		t.Fatal("serial impaired baseline delivered nothing")
	}
	for _, tc := range []struct{ domains, workers int }{
		{3, 1}, {4, 4}, {7, 4},
	} {
		got := runPDESStarCfg(t, leaves, tc.domains, tc.workers, cfg, im)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("domains=%d workers=%d impaired run diverged from serial:\ngot  %+v\nwant %+v",
				tc.domains, tc.workers, got, want)
		}
	}
}
