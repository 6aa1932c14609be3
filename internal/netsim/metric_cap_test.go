package netsim

import (
	"strings"
	"testing"

	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
)

// promText renders the registry's Prometheus snapshot.
func promText(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := telemetry.WritePrometheus(&b, reg); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestMetricEntityCapCutoff pins the per-entity cardinality cap added for
// fleet-scale topologies: exactly the first limit entities (in creation
// order: the switch, then each node's NIC and access link) publish metric
// series; later entities stay out of the snapshot entirely.
func TestMetricEntityCapCutoff(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	net.SetMetricEntityLimit(3)
	reg := telemetry.NewRegistry()
	net.SetTelemetry(reg, nil)

	sw := net.NewSwitch("sw0")                  // slot 1
	na := net.NewNode("a").AddNIC()             // slot 2
	net.Connect(na, sw.NewPort(), LinkConfig{}) // slot 3
	nb := net.NewNode("b").AddNIC()             // over the cap
	net.Connect(nb, sw.NewPort(), LinkConfig{}) // over the cap
	na.SetHandler(func([]byte) {})
	nb.SetHandler(func([]byte) {})

	links := net.Links()
	text := promText(t, reg)
	for _, want := range []string{
		`netsim_switch_forwarded_total{switch="sw0"}`,
		`netsim_nic_tx_frames_total{nic="` + na.String() + `"}`,
		`netsim_link_tx_frames_total{dir="` + links[0].String() + `"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("snapshot missing registered series %s:\n%s", want, text)
		}
	}
	for _, banned := range []string{
		`nic="` + nb.String() + `"`,
		`dir="` + links[1].String() + `"`,
	} {
		if strings.Contains(text, banned) {
			t.Errorf("snapshot contains capped entity %s:\n%s", banned, text)
		}
	}
}

// TestMetricEntityCapStillAggregates pins the cap's other half: capped
// entities keep counting. Their Stats()/Counters() accessors move, and
// fleet-total aggregations (summing Counters over Links(), the switch's
// forwarded count) include the capped entities' traffic — only the
// per-entity snapshot series are suppressed.
func TestMetricEntityCapStillAggregates(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	net.SetMetricEntityLimit(3)
	reg := telemetry.NewRegistry()
	net.SetTelemetry(reg, nil)

	sw := net.NewSwitch("sw0")
	na := net.NewNode("a").AddNIC()
	net.Connect(na, sw.NewPort(), LinkConfig{})
	nb := net.NewNode("b").AddNIC() // capped, as is its link below
	net.Connect(nb, sw.NewPort(), LinkConfig{})
	na.SetHandler(func([]byte) {})
	nb.SetHandler(func([]byte) {})

	// Two frames each way; the second forwards instead of flooding.
	const frames = 2
	for i := 0; i < frames; i++ {
		na.Send(frame(na.MAC(), nb.MAC(), 100))
		nb.Send(frame(nb.MAC(), na.MAC(), 100))
		s.Drain()
	}

	// The capped NIC and link still count.
	rxF, _, txF, _ := nb.Stats()
	if txF != frames || rxF != frames {
		t.Fatalf("capped NIC b0 stats rx=%d tx=%d, want %d/%d", rxF, txF, frames, frames)
	}
	links := net.Links()
	if len(links) != 2 {
		t.Fatalf("Links() = %d, want 2", len(links))
	}
	capped := links[1]
	if got := capped.Counters().TxFrames; got != 2*frames {
		t.Fatalf("capped link counters tx=%d, want %d", got, 2*frames)
	}
	// Per-direction attribution on the capped link works too.
	if got := capped.CountersSide(0).TxFrames; got != frames {
		t.Fatalf("capped link side 0 tx=%d, want %d", got, frames)
	}
	// Fleet totals built by aggregation include the capped entities.
	var total uint64
	for _, l := range links {
		total += l.Counters().TxFrames
	}
	if total != 4*frames {
		t.Fatalf("fleet link total = %d, want %d", total, 4*frames)
	}
	// Each of the 2*frames sends traverses the switch exactly once.
	fwd, fld := sw.Stats()
	if fwd+fld != 2*frames {
		t.Fatalf("switch saw %d frames (fwd=%d fld=%d), want %d", fwd+fld, fwd, fld, 2*frames)
	}
	// And the registered (uncapped) link's series move with its counter.
	text := promText(t, reg)
	want := `netsim_link_tx_frames_total{dir="` + links[0].String() + `"} 2`
	if !strings.Contains(text, want) {
		t.Errorf("registered link series not counting (want %s):\n%s", want, text)
	}
}
