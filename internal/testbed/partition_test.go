package testbed

import (
	"math"
	"testing"
	"time"

	"ddoshield/internal/devices"
)

// layoutConfig is a representative partitioned fleet: a mixed profile
// cycle (bot-capable camera, light sensor, idle filler) across enough
// devices to cover both the scannable classic plane and the extension
// plane.
func layoutConfig(domains int) Config {
	return Config{
		Seed:         42,
		NumDevices:   1000,
		DeviceGroups: 8,
		Profiles:     devices.ScaleFleet,
		MeanThink:    30 * time.Second,
		Domains:      domains,
	}.withDefaults()
}

func samePlacement(a, b placement) bool {
	if len(a.deviceGroup) != len(b.deviceGroup) || len(a.deviceDomain) != len(b.deviceDomain) {
		return false
	}
	for i := range a.deviceGroup {
		if a.deviceGroup[i] != b.deviceGroup[i] {
			return false
		}
	}
	for i := range a.deviceDomain {
		if a.deviceDomain[i] != b.deviceDomain[i] {
			return false
		}
	}
	return true
}

// TestLayoutDeterministic pins the partitioner's core contract: the same
// seed and topology produce the identical device-to-group assignment on
// every call, and the assignment is a pure function of the topology — the
// Domains setting (execution mode) never changes which group a device
// lands in.
func TestLayoutDeterministic(t *testing.T) {
	base := layoutConfig(1).layout()
	for run := 0; run < 3; run++ {
		if got := layoutConfig(1).layout(); !samePlacement(got, base) {
			t.Fatalf("run %d: layout diverged from first call", run)
		}
	}
	// Group assignment must be identical under every Domains setting;
	// only the domain column may differ.
	for _, domains := range []int{2, 3, 9} {
		got := layoutConfig(domains).layout()
		for i := range base.deviceGroup {
			if got.deviceGroup[i] != base.deviceGroup[i] {
				t.Fatalf("Domains=%d moved device %d from group %d to %d",
					domains, i, base.deviceGroup[i], got.deviceGroup[i])
			}
		}
	}
}

// TestLayoutDomainsExcludeCore checks that devices only land on domains
// 1..Domains-1 (domain 0 is reserved for the core: TServer, IDS, C2,
// attacker, lan0), and that every non-core domain receives at least one
// group when there are enough groups to go around.
func TestLayoutDomainsExcludeCore(t *testing.T) {
	cfg := layoutConfig(5)
	pl := cfg.layout()
	used := make(map[int]bool)
	for i, d := range pl.deviceDomain {
		if d < 1 || d > cfg.Domains-1 {
			t.Fatalf("device %d on domain %d, want 1..%d", i, d, cfg.Domains-1)
		}
		used[d] = true
	}
	if len(used) != cfg.Domains-1 {
		t.Fatalf("only %d of %d non-core domains used", len(used), cfg.Domains-1)
	}
}

// TestLayoutSkewBound bounds the load skew the LPT packing produces.
// Greedy LPT guarantees max bin <= (4/3 - 1/3m) x optimal; with optimal
// >= mean that gives max/mean <= 4/3, and packing group sums onto domains
// compounds the two levels to at most (4/3)^2 < 1.8. The old round-robin
// layout concentrated whole profile classes into single domains and blew
// far past this (a bot-heavy class next to idle filler skews round-robin
// by the full class weight ratio, >100x for ScaleFleet).
func TestLayoutSkewBound(t *testing.T) {
	cfg := layoutConfig(5)
	pl := cfg.layout()

	check := func(name string, loads []float64, bound float64) {
		t.Helper()
		var sum, max float64
		for _, l := range loads {
			sum += l
			max = math.Max(max, l)
		}
		mean := sum / float64(len(loads))
		if mean == 0 {
			t.Fatalf("%s: zero mean load", name)
		}
		if ratio := max / mean; ratio > bound {
			t.Fatalf("%s: max/mean load skew %.3f exceeds %.2f (loads %v)",
				name, ratio, bound, loads)
		}
	}

	check("groups", binLoads(pl.weights, pl.deviceGroup, cfg.DeviceGroups), 4.0/3)

	groupWeight := make([]float64, cfg.DeviceGroups)
	for i, g := range pl.deviceGroup {
		groupWeight[g] += pl.weights[i]
	}
	domainLoad := make([]float64, cfg.Domains-1)
	for g, w := range groupWeight {
		domainLoad[pl.groupDomain[g]-1] += w
	}
	check("domains", domainLoad, 1.8)
}

// TestLayoutUniformFleetIsRoundRobin pins the degenerate case: when every
// device weighs the same, the stable LPT sort keeps index order and the
// lightest-bin rule cycles through bins — exactly the old i % groups
// layout, so uniform small topologies keep their historical placement.
func TestLayoutUniformFleetIsRoundRobin(t *testing.T) {
	cfg := Config{
		Seed:         1,
		NumDevices:   64,
		DeviceGroups: 4,
		Profiles:     []devices.Profile{devices.ProfileIdle},
		MeanThink:    time.Second,
	}.withDefaults()
	pl := cfg.layout()
	for i, g := range pl.deviceGroup {
		if g != i%4 {
			t.Fatalf("uniform fleet: device %d in group %d, want %d", i, g, i%4)
		}
	}
}

// TestPartitionLPTProperties spot-checks the packer on a pathological
// weight vector: a few huge items plus a long tail.
func TestPartitionLPTProperties(t *testing.T) {
	weights := make([]float64, 103)
	weights[0], weights[1], weights[2] = 100, 90, 80
	for i := 3; i < len(weights); i++ {
		weights[i] = 1
	}
	assign := partitionLPT(weights, 3)
	loads := binLoads(weights, assign, 3)
	// The three heavy items must land in three different bins.
	if assign[0] == assign[1] || assign[1] == assign[2] || assign[0] == assign[2] {
		t.Fatalf("heavy items share a bin: %v", assign[:3])
	}
	var max, min = loads[0], loads[0]
	for _, l := range loads {
		max, min = math.Max(max, l), math.Min(min, l)
	}
	if max/min > 4.0/3 {
		t.Fatalf("pathological vector packed with skew %.3f: %v", max/min, loads)
	}
}

// TestLayoutGroupsArePlainLPT pins the one group-assignment policy: devices
// pack onto edge groups by greedy LPT over their event weight and nothing
// else — in particular a scannable plane that is a small corner of the
// fleet is spread like any other load, not herded into the low groups.
func TestLayoutGroupsArePlainLPT(t *testing.T) {
	cfg := layoutConfig(5)
	cfg.ScannableDevices = 64
	pl := cfg.layout()
	want := partitionLPT(pl.weights, cfg.DeviceGroups)
	for i, g := range pl.deviceGroup {
		if g != want[i] {
			t.Fatalf("device %d in group %d, plain LPT puts it in %d", i, g, want[i])
		}
	}
	scannablePerGroup := make([]int, cfg.DeviceGroups)
	for i, g := range pl.deviceGroup {
		if cfg.deviceScannable(i) {
			scannablePerGroup[g]++
		}
	}
	for g, n := range scannablePerGroup {
		if n == 0 {
			t.Fatalf("group %d holds no scannable device: %v", g, scannablePerGroup)
		}
	}
}
