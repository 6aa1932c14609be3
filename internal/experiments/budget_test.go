package experiments

import (
	"runtime"
	"testing"
	"time"

	"ddoshield/internal/devices"
	"ddoshield/internal/netsim"
	"ddoshield/internal/sim"
	"ddoshield/internal/testbed"
)

// budgetFleet builds and starts the fleet the two CI budgets measure: 10k
// mostly-idle HTTP-only devices in 39 edge groups with group-local servers
// and primed ARP, partitioned over two domains — the shape of the
// benchmark's scale50k-pdes workload at a fifth of its size.
func budgetFleet(t *testing.T) *testbed.Testbed {
	t.Helper()
	fleet := make([]devices.Profile, 0, len(devices.ScaleFleet))
	for _, p := range devices.ScaleFleet {
		p.Video, p.FTP = false, false // edge servers speak HTTP only
		fleet = append(fleet, p)
	}
	tb, err := testbed.New(testbed.Config{
		Seed:             42,
		NumDevices:       10_000,
		DeviceGroups:     39,
		EdgeServers:      true,
		Profiles:         fleet,
		MeanThink:        60 * time.Second,
		ScanInterval:     time.Millisecond,
		ScannableDevices: 2048,
		TrunkLink:        netsim.LinkConfig{Delay: 5 * sim.Millisecond},
		Domains:          2,
		PrimeARP:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	return tb
}

// liveHeap forces two GC cycles (the second collects pool contents freed
// by the first) and reports the live heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHeapBudget10kDevices is the CI memory budget: building and starting
// a 10k-device partitioned fleet must stay under 16 KiB of live heap per
// device. The measured footprint is ~4.8 KiB/device (see EXPERIMENTS.md),
// so the budget carries ~3x headroom for GC noise while still failing on
// a real regression — reintroducing eager per-device maps, RNGs, or
// telemetry series costs several KiB each and blows straight through it.
func TestHeapBudget10kDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-device build is too heavy for -short")
	}
	before := liveHeap()
	tb := budgetFleet(t)
	after := liveHeap()
	perDevice := float64(after-before) / float64(len(tb.Devices()))
	runtime.KeepAlive(tb)

	const budget = 16 * 1024
	t.Logf("heap: %.0f B/device (%d devices, budget %d B)", perDevice, len(tb.Devices()), budget)
	if perDevice > budget {
		t.Fatalf("heap budget exceeded: %.0f B/device > %d B/device", perDevice, budget)
	}
}

// TestBuildBudget10kDevices is the CI topology-build budget: constructing
// and starting a 10k-device partitioned fleet must stay under a 3 s wall
// ceiling. The staged parallel construction lands this in ~150 ms on the
// CI runner class, so the ceiling carries wide headroom for machine noise
// while still catching a real regression — reintroducing per-link label
// rendering, per-direction heap allocations, or quadratic priming each
// cost hundreds of milliseconds at this scale and compound to seconds at
// 100k.
func TestBuildBudget10kDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-device build is too heavy for -short")
	}
	start := time.Now()
	tb := budgetFleet(t)
	elapsed := time.Since(start)
	runtime.KeepAlive(tb)

	const ceiling = 3 * time.Second
	t.Logf("build+start: %v (%d devices, ceiling %v)", elapsed, len(tb.Devices()), ceiling)
	if elapsed > ceiling {
		t.Fatalf("topology build budget exceeded: %v > %v", elapsed, ceiling)
	}
}
