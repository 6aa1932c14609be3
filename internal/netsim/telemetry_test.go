package netsim

import (
	"bytes"
	"fmt"
	"testing"

	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/telemetry/trace"
)

// runTrafficScenario drives a deterministic two-host+switch topology with
// enough traffic to exercise forwarding, flooding, queue drops, random
// loss and ingress-filter drops, then returns a rendering of every legacy
// Stats() accessor. With a registry attached, every frame is traced and
// every drop's span carries its cause into trace_drops_total.
func runTrafficScenario(t *testing.T, reg *telemetry.Registry, rec *telemetry.Recorder) (string, *Network, *NIC, *NIC, *Switch) {
	t.Helper()
	s := sim.NewScheduler()
	net := New(s)
	net.SetSeed(7) // roots lb's loss streams
	if reg != nil || rec != nil {
		net.SetTelemetry(reg, rec)
	}
	var tr *trace.Tracer
	if reg != nil {
		tr = trace.New(trace.Config{SampleRate: 1, Registry: reg})
		net.SetTracer(tr)
	}
	sw := net.NewSwitch("lan0")
	a := net.NewNode("a").AddNIC()
	b := net.NewNode("b").AddNIC()
	cfg := LinkConfig{RateBps: 1_000_000, QueueBytes: 2048, Delay: sim.Millisecond}
	la := net.Connect(a, sw.NewPort(), cfg)
	lb := net.Connect(b, sw.NewPort(), LinkConfig{
		RateBps: 1_000_000, QueueBytes: 2048, Delay: sim.Millisecond,
		LossProb: 0.2,
	})
	// b drops every third frame at ingress, ending its chain as a filter
	// must.
	n := 0
	b.SetIngressFilterCtx(func(_ []byte, tc trace.Context) bool {
		n++
		if n%3 != 0 {
			return true
		}
		tc.Start(s.Now(), "filter", "b").Drop(s.Now(), trace.DropIngressFilter)
		return false
	})
	b.SetHandler(func([]byte) {})
	a.SetHandler(func([]byte) {})

	frame := func(src, dst packet.MAC, size int) []byte {
		raw := make([]byte, size)
		copy(raw[0:6], dst[:])
		copy(raw[6:12], src[:])
		return raw
	}
	send := func(from *NIC, raw []byte) {
		origin := tr.Origin(s.Now(), trace.Flow{}, "tx", from.String())
		from.SendCtx(raw, origin)
		origin.Finish(s.Now())
	}
	for i := 0; i < 60; i++ {
		send(a, frame(a.MAC(), b.MAC(), 200+i))
		if i%4 == 0 {
			send(b, frame(b.MAC(), a.MAC(), 150))
		}
	}
	s.Drain()

	var out bytes.Buffer
	arx, arb, atx, atb := a.Stats()
	fmt.Fprintf(&out, "a: rx=%d rxb=%d tx=%d txb=%d ingress-drop=%d\n", arx, arb, atx, atb, a.IngressDropped())
	brx, brb, btx, btb := b.Stats()
	fmt.Fprintf(&out, "b: rx=%d rxb=%d tx=%d txb=%d ingress-drop=%d\n", brx, brb, btx, btb, b.IngressDropped())
	for i, l := range []*Link{la, lb} {
		c := l.Counters()
		fmt.Fprintf(&out, "link%d: tx=%d txb=%d drops=%d full=%+v\n", i, c.TxFrames, c.TxBytes, c.Drops(), c)
	}
	fwd, fld := sw.Stats()
	fmt.Fprintf(&out, "switch: fwd=%d fld=%d\n", fwd, fld)
	var agg LinkStats
	agg.Add(la.Counters())
	agg.Add(lb.Counters())
	fmt.Fprintf(&out, "agg: %+v drops=%d\n", agg, agg.Drops())
	return out.String(), net, a, b, sw
}

// TestStatsByteIdenticalWithTelemetryAttached is the counter-unification
// regression guard: moving LinkStats/NIC accounting onto shared telemetry
// counters must leave every legacy Stats() accessor byte-identical,
// whether or not a registry and recorder are attached.
func TestStatsByteIdenticalWithTelemetryAttached(t *testing.T) {
	plain, _, _, _, _ := runTrafficScenario(t, nil, nil)
	instr, _, _, _, _ := runTrafficScenario(t, telemetry.NewRegistry(), telemetry.NewRecorder(1024))
	if plain != instr {
		t.Fatalf("Stats() diverge with telemetry attached:\n--- plain ---\n%s--- instrumented ---\n%s", plain, instr)
	}
	if plain == "" {
		t.Fatal("scenario produced no stats")
	}
}

// TestRegistryAgreesWithStatsAdapters asserts the registry exports the
// exact same values the legacy accessors report — one source of truth.
func TestRegistryAgreesWithStatsAdapters(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.NewRecorder(1024)
	_, net, a, b, sw := runTrafficScenario(t, reg, rec)

	vals := map[string]float64{}
	for _, s := range reg.Snapshot() {
		if s.Kind != telemetry.KindHistogram {
			vals[s.Name+s.Labels] = s.Value
		}
	}
	rx, rxb, tx, txb := b.Stats()
	checks := []struct {
		metric string
		want   uint64
	}{
		{`netsim_nic_rx_frames_total{nic="b/eth0"}`, rx},
		{`netsim_nic_rx_bytes_total{nic="b/eth0"}`, rxb},
		{`netsim_nic_tx_frames_total{nic="b/eth0"}`, tx},
		{`netsim_nic_tx_bytes_total{nic="b/eth0"}`, txb},
		{`netsim_nic_ingress_dropped_total{nic="b/eth0"}`, b.IngressDropped()},
	}
	arx, _, _, _ := a.Stats()
	checks = append(checks, struct {
		metric string
		want   uint64
	}{`netsim_nic_rx_frames_total{nic="a/eth0"}`, arx})
	fwd, fld := sw.Stats()
	checks = append(checks,
		struct {
			metric string
			want   uint64
		}{`netsim_switch_forwarded_total{switch="lan0"}`, fwd},
		struct {
			metric string
			want   uint64
		}{`netsim_switch_flooded_total{switch="lan0"}`, fld},
	)
	for _, c := range checks {
		got, ok := vals[c.metric]
		if !ok {
			t.Fatalf("metric %s not registered; have %d metrics", c.metric, len(vals))
		}
		if got != float64(c.want) {
			t.Errorf("%s = %v, legacy accessor says %d", c.metric, got, c.want)
		}
	}
	if b.IngressDropped() == 0 {
		t.Fatal("scenario should have exercised ingress drops")
	}
	// Every frame is sampled, so each drop's span names its cause once: the
	// per-cause span counts equal the drop counters.
	var links LinkStats
	for _, l := range net.links {
		links.Add(l.Counters())
	}
	if links.QueueDrops == 0 || links.LossFrames == 0 {
		t.Fatalf("scenario should have exercised queue drops and loss: %+v", links)
	}
	for _, c := range []struct {
		cause trace.DropCause
		want  uint64
	}{
		{trace.DropIngressFilter, b.IngressDropped()},
		{trace.DropQueueFull, links.QueueDrops},
		{trace.DropLoss, links.LossFrames},
	} {
		metric := fmt.Sprintf(`trace_drops_total{cause="%s"}`, c.cause)
		if got := vals[metric]; got != float64(c.want) {
			t.Errorf("%s = %v, the drop counter says %d", metric, got, c.want)
		}
	}
	// The flight recorder holds state changes: no drop reaches it.
	if evs := rec.Events(); len(evs) != 0 {
		t.Fatalf("per-frame drops reached the flight recorder: %+v", evs)
	}
}

// TestLinkStatsAddAggregatesSharedCounters pins the LinkStats.Add path:
// fleet-wide aggregation over telemetry-backed counters must equal the
// sum of the per-link registry values.
func TestLinkStatsAddAggregatesSharedCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, net, _, _, _ := runTrafficScenario(t, reg, nil)
	var agg LinkStats
	for _, l := range net.links {
		agg.Add(l.Counters())
	}
	var tx, drops, loss uint64
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "netsim_link_tx_frames_total":
			tx += uint64(s.Value)
		case "netsim_link_queue_drops_total":
			drops += uint64(s.Value)
		case "netsim_link_loss_frames_total":
			loss += uint64(s.Value)
		}
	}
	if agg.TxFrames != tx || agg.QueueDrops != drops || agg.LossFrames != loss {
		t.Fatalf("aggregation mismatch: LinkStats %+v vs registry tx=%d drops=%d loss=%d",
			agg, tx, drops, loss)
	}
	if agg.LossFrames == 0 {
		t.Fatal("scenario should have exercised random loss")
	}
}
