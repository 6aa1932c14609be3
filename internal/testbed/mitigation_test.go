package testbed

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"ddoshield/internal/ids"
)

// mitigatedDrive runs the faulted campaign with the detection loop closed:
// an IDS unit driving the verdict-cache firewall at the TServer ingress.
// The IDS unit itself registers no metrics — ids_window_cpu_us is
// wall-clock — so every exported byte derives from simulated time. The
// wave starts later and floods harder than the plain faulted campaign:
// infection needs ~12 s under churn, and the threshold rule only trips
// when the flood actually dominates a window.
func mitigatedDrive(t *testing.T, tb *Testbed) {
	t.Helper()
	unit := ids.New(ids.Config{
		Model:   ids.NewThresholdRule(),
		Window:  time.Second,
		Labeler: tb.Labeler(),
	})
	tb.AttachIDS(unit)
	tb.AttachMitigation(unit, MitigationConfig{})
	withChaos(waves(12*time.Second, 2*time.Second, 4*time.Second, 1500, 30*time.Second))(t, tb)
	unit.Flush()
}

// TestPDESMitigatedCampaignDeterminism is the acceptance test for the
// closed mitigation loop under the parallel engine: a faulted campaign
// with inline mitigation active — verdict-cache aging, reaction installs
// and rule expiry all in play — must produce byte-identical artifacts
// across Domains ∈ {1, 2, NumCPU}. Run under -race in CI.
func TestPDESMitigatedCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("mitigated determinism matrix is slow")
	}
	cfg := faultedCampaign(14 * time.Second)
	cfg.ScanInterval = 100 * time.Millisecond
	cfg.TraceSampleRate = 0.5
	runs := requireSameAcrossModes(t, modes(cfg,
		[2]int{1, 1}, [2]int{2, 0}, [2]int{manyDomains(), 0}), mitigatedDrive)
	want := runs[0]
	if !strings.Contains(want.summary, "mitigation") {
		t.Fatalf("mitigated baseline has no mitigation summary lines:\n%s", want.summary)
	}
	if !strings.Contains(want.prom, "mitigation_frames_dropped_total") {
		t.Fatal("mitigation counters missing from the Prometheus snapshot")
	}
	if !strings.Contains(want.spans, `"mitigated"`) {
		t.Fatal("no sampled flow was terminated by the mitigation hop")
	}
}

// TestMitigationScoreboard drives a small clean campaign through the
// closed loop and checks the observable outcomes end to end: detection
// precedes mitigation, attack traffic is actually dropped, and the
// scoreboard JSON carries the full accounting.
func TestMitigationScoreboard(t *testing.T) {
	tb, err := New(Config{Seed: 42, NumDevices: 8, DeviceGroups: 2})
	if err != nil {
		t.Fatal(err)
	}
	unit := ids.New(ids.Config{
		Model:   ids.NewThresholdRule(),
		Window:  time.Second,
		Labeler: tb.Labeler(),
	})
	tb.AttachIDS(unit)
	fw := tb.AttachMitigation(unit, MitigationConfig{})
	tb.Start()
	tb.ScheduleAttackWave(15*time.Second, 0, tb.DefaultAttackWave(6*time.Second, 300))
	if err := tb.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	unit.Flush()

	det, ok := tb.DetectionLatency(unit)
	if !ok {
		t.Fatal("flood never detected")
	}
	ttm, ok := tb.TimeToMitigate(fw)
	if !ok {
		t.Fatal("mitigation never engaged")
	}
	if ttm < det {
		t.Fatalf("time-to-mitigate %v precedes detection latency %v", ttm, det)
	}
	if !strings.Contains(tb.Summary(), "time-to-mitigate=") {
		t.Fatalf("Summary misses the mitigate line:\n%s", tb.Summary())
	}

	sb := tb.MitigationScoreboard()
	if len(sb.Units) != 1 {
		t.Fatalf("scoreboard units = %d, want 1", len(sb.Units))
	}
	u := sb.Units[0]
	if u.Unit != unit.Name() {
		t.Fatalf("scoreboard unit = %q", u.Unit)
	}
	if u.TimeToMitigateS != ttm.Seconds() || u.DetectionLatencyS != det.Seconds() {
		t.Fatalf("scoreboard latencies (%v, %v) disagree with accessors (%v, %v)",
			u.DetectionLatencyS, u.TimeToMitigateS, det.Seconds(), ttm.Seconds())
	}
	if u.AttackDrops == 0 {
		t.Fatal("no attack frames dropped")
	}
	if r := tb.mitigations[0].resp.Report(); u.Report != r {
		t.Fatalf("scoreboard panel %+v is not the loop's report %+v", u.Report, r)
	}
	// With the testbed's classifier every drop is collateral or attack.
	if u.Evaluated == 0 || u.Dropped != u.AttackDrops+u.CollateralDrops {
		t.Fatalf("scoreboard accounting diverges: %+v", u)
	}
	if hits := u.RuleHits; hits.Addr+hits.Prefix+hits.Flow != u.Dropped {
		t.Fatalf("rule hits %+v do not attribute all %d drops", hits, u.Dropped)
	}
	if inst := u.RulesInstalled; inst.Addr+inst.Prefix+inst.Flow == 0 || u.Alerts == 0 {
		t.Fatalf("no rules installed or no alerts handled: %+v", u)
	}
	data, err := sb.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back MitigationScoreboard
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("scoreboard JSON does not round-trip: %v", err)
	}
	if len(back.Units) != 1 || back.Units[0] != u {
		t.Fatalf("scoreboard JSON lost fields: %+v, want %+v", back.Units, u)
	}
}
