package testbed

import (
	"testing"
	"time"

	"ddoshield/internal/telemetry/prof"
)

// TestProfileDeterminism is the observability tentpole's regression test:
// attaching the profiler must not perturb any deterministic artifact —
// Summary, Prometheus snapshot and canonical spans stay byte-identical to
// the unprofiled serial baseline across Domains ∈ {1, 2, NumCPU} — and the
// virtual-load attribution itself is byte-identical across every run,
// because it is evaluated through the reference layout rather than the
// execution partitioning. CI runs this by name in the profiler job.
func TestProfileDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("profiled determinism matrix is slow")
	}
	profiled := tracedCampaign()
	profiled.Profile = true
	cfgs := append(modes(tracedCampaign(), [2]int{1, 1}),
		modes(profiled, [2]int{1, 1}, [2]int{2, 0}, [2]int{manyDomains(), 0})...)
	runs := requireSameAcrossModes(t, cfgs, tracedWaves)
	if runs[0].spans == "" {
		t.Fatal("baseline produced no trace spans")
	}
	if runs[0].tb.Profiler() != nil {
		t.Fatal("Profiler() is non-nil without Config.Profile")
	}
	for i, run := range runs[1:] {
		domains, tb := cfgs[i+1].Domains, run.tb
		if tb.Profiler() == nil {
			t.Fatal("Config.Profile set but Profiler() is nil")
		}
		p := tb.Profile(0)
		if p.Wall == nil || len(p.Wall.Phases) == 0 {
			t.Fatal("profiled run missing wall phases")
		}
		if domains > 1 {
			if p.Engine == nil || p.Engine.Window == nil {
				t.Fatalf("domains=%d profiled: engine section incomplete: %+v", domains, p.Engine)
			}
			if len(p.Wall.PerDomain) != domains {
				t.Fatalf("domains=%d: wall per-domain rows = %d", domains, len(p.Wall.PerDomain))
			}
		}
		if rep := tb.BottleneckReport(0).String(); rep == "" {
			t.Fatal("bottleneck report rendered empty")
		}
	}
}

// TestVirtualProfileShape pins the attribution's structure on a short
// grouped campaign: the default reference layout is one domain per group
// plus the core, every entity kind is represented, the trunk traffic shows
// up as cross-domain frames, and the core switch — every trunk crossing's
// serialization point — ranks among the hottest entities.
func TestVirtualProfileShape(t *testing.T) {
	tb, err := New(Config{Seed: 11, NumDevices: 8, DeviceGroups: 2, MeanThink: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	if err := tb.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	vp := tb.VirtualProfile(0)
	if vp.EvalDomains != 3 {
		t.Fatalf("eval domains = %d, want DeviceGroups+1 = 3", vp.EvalDomains)
	}
	kinds := map[string]bool{}
	for _, k := range vp.Kinds {
		kinds[k.Kind] = true
	}
	for _, want := range []string{prof.KindDevice, prof.KindSwitch, prof.KindLink, prof.KindHost, prof.KindFaults} {
		if !kinds[want] {
			t.Errorf("virtual profile missing kind %q: %+v", want, vp.Kinds)
		}
	}
	if len(vp.Cross) == 0 {
		t.Fatal("grouped topology produced no cross-domain frames")
	}
	var coreIn uint64
	for _, c := range vp.Cross {
		if c.To == 0 {
			coreIn += c.Count
		}
	}
	if coreIn == 0 {
		t.Fatalf("no frames attributed into the core domain: %+v", vp.Cross)
	}
	found := false
	for _, e := range vp.TopEntities {
		if e.Kind == prof.KindSwitch && e.Name == "lan0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("core switch missing from top entities: %+v", vp.TopEntities)
	}
	if vp.ImbalanceIndex < 1 {
		t.Fatalf("imbalance index %.3f < 1", vp.ImbalanceIndex)
	}
}
