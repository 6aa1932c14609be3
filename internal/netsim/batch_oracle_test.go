package netsim_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"ddoshield/internal/faults"
	"ddoshield/internal/ids"
	"ddoshield/internal/netsim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/telemetry/trace"
	"ddoshield/internal/testbed"
)

// batchOracleRun is what one campaign run shows, rendered for comparison,
// and the events it cost.
type batchOracleRun struct {
	summary, prom, events, spans, windows, ledger string
	fired                                         uint64
	// unbalanced lists every frame account that does not balance.
	unbalanced []string
}

// runBatchOracle builds cfg, attaches one threshold-rule IDS unit (and, with
// defended, the verdict-cache firewall it drives), arms plan and the default
// attack wave, and runs for total.
func runBatchOracle(t *testing.T, cfg testbed.Config, plan faults.Plan, defended bool, total time.Duration) batchOracleRun {
	t.Helper()
	tb, err := testbed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	unit := ids.New(ids.Config{Model: ids.NewThresholdRule(), Window: time.Second, Labeler: tb.Labeler()})
	tb.AttachIDS(unit)
	if defended {
		tb.AttachMitigation(unit, testbed.MitigationConfig{})
	}
	tb.Start()
	tb.Injector().Schedule(plan)
	tb.ScheduleAttackWave(8*time.Second, 2*time.Second, tb.DefaultAttackWave(4*time.Second, 1500))
	if err := tb.Run(total); err != nil {
		t.Fatal(err)
	}
	unit.Flush()

	var r batchOracleRun
	r.summary = tb.Summary()
	var pb, sb bytes.Buffer
	if err := telemetry.WritePrometheus(&pb, tb.Registry()); err != nil {
		t.Fatal(err)
	}
	r.prom = pb.String()
	if err := trace.WriteSpans(&sb, trace.CanonicalSpans(tb.Tracer().Spans())); err != nil {
		t.Fatal(err)
	}
	r.spans = sb.String()
	var ev, win strings.Builder
	for _, e := range tb.Recorder().Events() {
		fmt.Fprintf(&ev, "%+v\n", e)
	}
	r.events = ev.String()
	for _, w := range unit.Results() {
		w.CPU = 0
		fmt.Fprintf(&win, "%+v\n", w)
	}
	r.windows = win.String()
	lg := tb.Network().Ledger()
	r.ledger = fmt.Sprintf("%+v", lg)
	if lg.Sent+lg.Copies-lg.Released != lg.InFlight {
		r.unbalanced = append(r.unbalanced, fmt.Sprintf("network %+v", lg))
	}
	for _, l := range tb.Network().Links() {
		for side := 0; side < 2; side++ {
			d := l.LedgerSide(side)
			if d.Offered+d.Duplicated != d.Delivered+d.QueueDrops+d.LossDrops+d.CutDrops+d.InFlight() {
				r.unbalanced = append(r.unbalanced, fmt.Sprintf("%s side %d %+v", l, side, d))
			}
		}
	}
	if e := tb.Engine(); e != nil {
		for i := 0; i < e.NumDomains(); i++ {
			r.fired += e.Domain(i).Scheduler().Fired()
		}
	} else {
		r.fired = tb.Scheduler().Fired()
	}
	return r
}

// TestARPFloodBatchMatchesUnbatched runs two campaigns with flood batching
// off and on, serial and split into three domains: a churned, lossy,
// faulted and defended fleet in four groups, and the paper's flat
// ten-device segment with a detector on the TServer's tap. Batching may
// only save events: the Summary, the Prometheus text, the flight
// recorder, the canonical spans, the IDS windows and the frame account must
// not move, and the network's and every link direction's account must
// balance.
func TestARPFloodBatchMatchesUnbatched(t *testing.T) {
	if testing.Short() {
		t.Skip("eight campaign runs")
	}
	chaos := testbed.Config{
		Seed:              42,
		NumDevices:        12,
		DeviceGroups:      4,
		MeanThink:         700 * time.Millisecond,
		ScanInterval:      100 * time.Millisecond,
		TraceSampleRate:   0.5,
		TraceSpanCapacity: 1 << 20,
		Churn:             testbed.ChurnConfig{Enabled: true, MeanUp: 14 * time.Second, MeanDown: time.Second},
		Link:              netsim.LinkConfig{LossProb: 0.01},
		TrunkLink:         netsim.LinkConfig{LossProb: 0.02},
	}
	paper := testbed.Config{
		Seed:              43,
		NumDevices:        10,
		MeanThink:         3 * time.Second,
		ScanInterval:      150 * time.Millisecond,
		TraceSampleRate:   1.0 / 64,
		TraceSpanCapacity: 1 << 20,
	}
	campaigns := []struct {
		name     string
		cfg      testbed.Config
		plan     faults.Plan
		defended bool
	}{
		{"defended chaos", chaos, faults.Random(faults.RandomConfig{Seed: 7, Start: 2 * time.Second, Window: 20 * time.Second, Intensity: 1}), true},
		{"paper10 detection", paper, faults.Plan{}, false},
	}
	defer netsim.SetARPFloodBatching(true)
	for _, c := range campaigns {
		for _, domains := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/domains=%d", c.name, domains), func(t *testing.T) {
				// One worker runs the domains' windows in turn: with more,
				// the flight recorder's order follows the goroutines.
				cfg := c.cfg
				cfg.Domains, cfg.PDESWorkers = domains, 1
				netsim.SetARPFloodBatching(false)
				off := runBatchOracle(t, cfg, c.plan, c.defended, 25*time.Second)
				netsim.SetARPFloodBatching(true)
				on := runBatchOracle(t, cfg, c.plan, c.defended, 25*time.Second)
				for _, part := range []struct{ what, off, on string }{
					{"Summary", off.summary, on.summary},
					{"Prometheus text", off.prom, on.prom},
					{"flight recorder", off.events, on.events},
					{"canonical spans", off.spans, on.spans},
					{"IDS windows", off.windows, on.windows},
					{"frame ledger", off.ledger, on.ledger},
				} {
					if part.off != part.on {
						t.Errorf("batching changed the %s\n--- off ---\n%s\n--- on ---\n%s", part.what, part.off, part.on)
					}
				}
				for _, run := range []batchOracleRun{off, on} {
					for _, u := range run.unbalanced {
						t.Errorf("frame account does not balance: %s", u)
					}
				}
				if on.fired >= off.fired {
					t.Errorf("batching fired %d events, %d without it: no flood was batched", on.fired, off.fired)
				}
				t.Logf("events %d unbatched, %d batched", off.fired, on.fired)
			})
		}
	}
}
