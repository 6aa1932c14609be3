package netsim

import (
	"bytes"
	"math/bits"
	"testing"

	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

func TestLinkDownCutsInFlightFrames(t *testing.T) {
	// 1000-byte frame at 1 Mb/s: serialization ends at 8 ms, arrival at
	// 18 ms. Cutting the link at 10 ms catches the frame on the wire.
	s, a, b := twoNodes(t, LinkConfig{RateBps: 1_000_000, Delay: 10 * sim.Millisecond})
	delivered := 0
	b.SetHandler(func(raw []byte) { delivered++ })
	a.Send(frame(a.MAC(), b.MAC(), 1000-packet.EthernetHeaderLen))
	s.At(10*sim.Millisecond, func() { setLinkUp(a.link, false) })
	s.Drain()
	if delivered != 0 {
		t.Fatal("in-flight frame survived a link cut")
	}
	st := a.link.Counters()
	if st.InFlightDrops != 1 {
		t.Fatalf("InFlightDrops = %d, want 1", st.InFlightDrops)
	}
	if st.TxFrames != 1 {
		t.Fatalf("TxFrames = %d, want 1 (transmitter already finished)", st.TxFrames)
	}
	if drops := st.Drops(); drops != 1 {
		t.Fatalf("Drops = %d, want 1", drops)
	}
}

func TestLinkDownThenUpDoesNotResurrectFrames(t *testing.T) {
	// A frame cut mid-flight stays lost even if the link comes back up
	// before its original arrival instant.
	s, a, b := twoNodes(t, LinkConfig{RateBps: 1_000_000, Delay: 10 * sim.Millisecond})
	delivered := 0
	b.SetHandler(func(raw []byte) { delivered++ })
	a.Send(frame(a.MAC(), b.MAC(), 1000-packet.EthernetHeaderLen))
	s.At(9*sim.Millisecond, func() { setLinkUp(a.link, false) })
	s.At(20*sim.Millisecond, func() { setLinkUp(a.link, true) })
	s.Drain()
	// Arrival at 18ms hits a down link; restore at 20ms must not replay it.
	if delivered != 0 {
		t.Fatal("cut frame was resurrected by link restore")
	}
	if st := a.link.Counters(); st.InFlightDrops != 1 {
		t.Fatalf("InFlightDrops = %d, want 1", st.InFlightDrops)
	}
}

func TestImpairmentCorruption(t *testing.T) {
	s, a, b := twoNodes(t, LinkConfig{})
	impairBoth(a.link, Impairments{CorruptProb: 1, RNG: sim.NewRNG(7)})
	var got []byte
	b.SetHandler(func(raw []byte) { got = bytes.Clone(raw) }) // raw is valid only during the call
	sent := frame(a.MAC(), b.MAC(), 64)
	orig := append([]byte(nil), sent...)
	a.Send(sent)
	s.Drain()
	if got == nil {
		t.Fatal("corrupted frame was not delivered")
	}
	if bytes.Equal(got, orig) {
		t.Fatal("frame delivered uncorrupted despite CorruptProb=1")
	}
	if !bytes.Equal(sent, orig) {
		t.Fatal("corruption mutated the sender's buffer")
	}
	flipped := 0
	for i := range got {
		flipped += bits.OnesCount8(got[i] ^ orig[i])
	}
	if flipped != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", flipped)
	}
	if st := a.link.Counters(); st.CorruptFrames != 1 || st.TxFrames != 1 {
		t.Fatalf("counters = %+v, want 1 corrupt / 1 tx", st)
	}
}

func TestImpairmentDuplication(t *testing.T) {
	s, a, b := twoNodes(t, LinkConfig{})
	impairBoth(a.link, Impairments{DupProb: 1, RNG: sim.NewRNG(3)})
	delivered := 0
	b.SetHandler(func(raw []byte) { delivered++ })
	a.Send(frame(a.MAC(), b.MAC(), 64))
	s.Drain()
	if delivered != 2 {
		t.Fatalf("delivered %d copies, want 2", delivered)
	}
	st := a.link.Counters()
	if st.DupFrames != 1 || st.TxFrames != 1 {
		t.Fatalf("counters = %+v, want 1 dup / 1 tx", st)
	}
}

func TestImpairmentLoss(t *testing.T) {
	s, a, b := twoNodes(t, LinkConfig{})
	impairBoth(a.link, Impairments{LossProb: 1, RNG: sim.NewRNG(5)})
	delivered := 0
	b.SetHandler(func(raw []byte) { delivered++ })
	a.Send(frame(a.MAC(), b.MAC(), 64))
	s.Drain()
	if delivered != 0 {
		t.Fatal("frame survived LossProb=1")
	}
	st := a.link.Counters()
	if st.LossFrames != 1 {
		t.Fatalf("LossFrames = %d, want 1", st.LossFrames)
	}
	if drops := st.Drops(); drops != 1 {
		t.Fatalf("Drops = %d, want 1", drops)
	}
}

func TestImpairmentReorder(t *testing.T) {
	// First frame is held by ReorderDelay; the second, sent right after,
	// overtakes it.
	s, a, b := twoNodes(t, LinkConfig{RateBps: 1_000_000, Delay: sim.Millisecond})
	var order []byte
	b.SetHandler(func(raw []byte) { order = append(order, raw[len(raw)-1]) })
	mk := func(tag byte) []byte {
		f := frame(a.MAC(), b.MAC(), 100-packet.EthernetHeaderLen)
		f[len(f)-1] = tag
		return f
	}
	impairBoth(a.link, Impairments{ReorderProb: 1, ReorderDelay: 50 * sim.Millisecond, RNG: sim.NewRNG(9)})
	a.Send(mk(1)) // transmits immediately: reordered, held 50 ms extra
	impairBoth(a.link, Impairments{})
	a.Send(mk(2)) // queued; transmits after frame 1's serialization, unimpaired
	s.Drain()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("arrival order = %v, want [2 1]", order)
	}
	if st := a.link.Counters(); st.ReorderFrames != 1 {
		t.Fatalf("ReorderFrames = %d, want 1", st.ReorderFrames)
	}
}

func TestImpairmentConservation(t *testing.T) {
	// With loss+dup+corrupt active, every transmitted frame is delivered
	// (possibly twice), lost, or dropped — the counters must balance.
	s, a, b := twoNodes(t, LinkConfig{RateBps: 100_000_000, QueueBytes: 1 << 20})
	impairBoth(a.link, Impairments{
		LossProb:    0.2,
		CorruptProb: 0.1,
		DupProb:     0.15,
		RNG:         sim.NewRNG(11),
	})
	delivered := 0
	b.SetHandler(func(raw []byte) { delivered++ })
	const n = 500
	for i := 0; i < n; i++ {
		a.Send(frame(a.MAC(), b.MAC(), 64))
	}
	s.Drain()
	st := a.link.Counters()
	if st.TxFrames != n {
		t.Fatalf("TxFrames = %d, want %d", st.TxFrames, n)
	}
	want := int(st.TxFrames - st.LossFrames + st.DupFrames)
	if delivered != want {
		t.Fatalf("delivered %d, want tx-loss+dup = %d (%+v)", delivered, want, st)
	}
	if st.LossFrames == 0 || st.DupFrames == 0 || st.CorruptFrames == 0 {
		t.Fatalf("expected all impairment counters non-zero: %+v", st)
	}
}

func TestSwitchPartition(t *testing.T) {
	s, sw, nics := buildStar(t)
	counts := make([]int, len(nics))
	for i, nic := range nics {
		i := i
		nic.SetHandler(func(raw []byte) { counts[i]++ })
	}
	// Teach the switch where everyone lives.
	for _, nic := range nics {
		nic.Send(frame(nic.MAC(), packet.BroadcastMAC, 64))
	}
	s.Drain()
	base := append([]int(nil), counts...)

	// Partition {0,1} | {2,3}.
	for i, nic := range nics {
		if !sw.SetGroup(nic.link.Ends()[1], i/2+1) {
			t.Fatalf("SetGroup failed for port %d", i)
		}
	}
	nics[0].Send(frame(nics[0].MAC(), nics[1].MAC(), 64)) // same side: delivered
	nics[0].Send(frame(nics[0].MAC(), nics[2].MAC(), 64)) // across: dropped
	s.Drain()
	if counts[1] != base[1]+1 {
		t.Fatal("intra-partition frame not delivered")
	}
	if counts[2] != base[2] {
		t.Fatal("frame crossed the partition")
	}
	if sw.PartitionDrops() != 1 {
		t.Fatalf("PartitionDrops = %d, want 1", sw.PartitionDrops())
	}
	// Broadcast floods only the sender's side.
	nics[3].Send(frame(nics[3].MAC(), packet.BroadcastMAC, 64))
	s.Drain()
	if counts[2] != base[2]+1 || counts[0] != base[0] || counts[1] != base[1]+1 {
		t.Fatalf("partitioned broadcast counts = %v (base %v)", counts, base)
	}

	// Healing restores full connectivity.
	sw.ClearGroups()
	nics[0].Send(frame(nics[0].MAC(), nics[2].MAC(), 64))
	s.Drain()
	if counts[2] != base[2]+2 {
		t.Fatal("partition heal did not restore forwarding")
	}
}

func TestSetGroupRejectsForeignPort(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	sw := net.NewSwitch("sw0")
	other := net.NewSwitch("sw1")
	p := other.NewPort()
	if sw.SetGroup(p, 1) {
		t.Fatal("SetGroup accepted another switch's port")
	}
	nic := net.NewNode("n").AddNIC()
	if sw.SetGroup(nic, 1) {
		t.Fatal("SetGroup accepted a NIC")
	}
}
