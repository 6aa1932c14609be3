package testbed

import (
	"testing"
	"time"

	"ddoshield/internal/telemetry/prof"
)

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
	vp := tb.VirtualProfile()
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
