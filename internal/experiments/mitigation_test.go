package experiments

import (
	"strings"
	"testing"
	"time"

	"ddoshield/internal/telemetry"
	"ddoshield/internal/testbed"
)

// TestMitigationSweepSmoke runs a single grid point and checks the closed
// loop actually closed: the flood was detected, mitigation engaged after
// detection, and attack traffic was dropped. The same point run by hand at
// Domains 1 and 2 must measure what the sweep published and leave
// byte-identical Summary and Prometheus output.
func TestMitigationSweepSmoke(t *testing.T) {
	cfg := MitigationSweepConfig{
		Seed:           42,
		Thresholds:     []int{4},
		CacheSizes:     []int{256},
		ReactionDelays: []time.Duration{0},
	}
	pts, err := RunMitigationSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("points = %d, want 1", len(pts))
	}
	pt := pts[0]
	cfg = cfg.withDefaults()
	var wantSummary, wantProm string
	for _, domains := range []int{1, 2} {
		tbCfg := cfg.testbedConfig()
		tbCfg.Domains = domains
		tb, err := testbed.New(tbCfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cfg.runPoint(tb, 4, 256, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != pt {
			t.Fatalf("Domains=%d measured %+v, the sweep published %+v", domains, got, pt)
		}
		var prom strings.Builder
		if err := telemetry.WritePrometheus(&prom, tb.Registry()); err != nil {
			t.Fatal(err)
		}
		if domains == 1 {
			wantSummary, wantProm = tb.Summary(), prom.String()
			continue
		}
		if s := tb.Summary(); s != wantSummary {
			t.Fatalf("Domains=%d Summary diverged\n--- want ---\n%s--- got ---\n%s", domains, wantSummary, s)
		}
		if prom.String() != wantProm {
			t.Fatalf("Domains=%d Prometheus snapshot diverged", domains)
		}
	}
	if pt.DetectionLatencyS < 0 {
		t.Fatal("flood was never detected")
	}
	if pt.TimeToMitigateS < pt.DetectionLatencyS {
		t.Fatalf("time-to-mitigate %.3fs precedes detection latency %.3fs",
			pt.TimeToMitigateS, pt.DetectionLatencyS)
	}
	if pt.AttackDrops == 0 {
		t.Fatal("no attack frames dropped")
	}
	// Three 20/3 s vectors, each 7 s on the wire.
	if want := float64(pt.AttackPassed) / 21; pt.ResidualAttackPPS != want {
		t.Fatalf("residual %v pps, want %d passed / 21 s = %v", pt.ResidualAttackPPS, pt.AttackPassed, want)
	}
	if pt.Evaluated == 0 || pt.Dropped == 0 {
		t.Fatalf("firewall counters empty: evaluated=%d dropped=%d", pt.Evaluated, pt.Dropped)
	}
	if pt.Cache.Inserts == 0 {
		t.Fatal("verdict cache never populated")
	}
	if s := FormatMitigationSweep(pts); s == "" {
		t.Fatal("empty benchtable")
	}
}
