package testbed

import "sort"

// Load-aware fleet placement. The round-robin `i % groups` layout this
// replaces put every heavy device class in lock-step across groups and —
// worse — concentrated whole profile classes into single PDES domains,
// so one hot domain serialized the epoch barrier while idle domains
// waited. Placement here is greedy LPT (longest-processing-time) bin
// packing over each device's expected event rate: sort devices by weight
// descending, assign each to the currently lightest bin. The classic
// 4/3-approximation bound applies, which in practice keeps the max/min
// domain event-rate ratio within a small constant for any mixed fleet
// (the partition tests pin the observed bound).
//
// Determinism: placement is a pure function of (profiles, think time,
// scannability, group count) — no RNG, no map iteration, stable sorts
// only. The same Config therefore yields the same topology on every run,
// and the topology never depends on Domains: execution mode chooses where
// groups *run*, never what is *simulated*, preserving byte-identical
// output across Domains settings.

// placement is the computed layout for one Config.
type placement struct {
	// weights[i] is device i's expected event-rate weight.
	weights []float64
	// deviceGroup[i] is device i's access-switch group (all 0 when the
	// topology is flat).
	deviceGroup []int
	// groupDomain[g] is group g's PDES domain (nil when Domains <= 1 or
	// the topology is flat).
	groupDomain []int
	// deviceDomain[i] is device i's PDES domain (0 when serial).
	deviceDomain []int
}

// layout computes the fleet placement for the configuration. Requires
// withDefaults() to have run (Profiles, MeanThink, group/domain counts
// populated).
func (c Config) layout() placement { return c.layoutDomains(c.Domains) }

// layoutDomains computes the placement for an arbitrary domain count,
// independent of c.Domains. The execution engine uses the layout at
// c.Domains (via layout); the profiler's virtual-load attribution
// re-evaluates the same pure function at a fixed reference count so its
// snapshot is byte-identical across Domains settings.
func (c Config) layoutDomains(domains int) placement {
	pl := placement{
		weights:      make([]float64, c.NumDevices),
		deviceGroup:  make([]int, c.NumDevices),
		deviceDomain: make([]int, c.NumDevices),
	}
	for i := range pl.weights {
		p := c.Profiles[i%len(c.Profiles)]
		pl.weights[i] = p.EventWeight(c.MeanThink, c.deviceScannable(i))
	}
	if c.DeviceGroups > 1 {
		pl.deviceGroup = partitionLPT(pl.weights, c.DeviceGroups)
	}
	if domains > 1 {
		if c.DeviceGroups > 1 {
			// Domain granularity is the group: a group's devices share an
			// edge switch, and that whole subtree must execute in one
			// domain. Pack groups onto the non-core domains by their
			// summed device weight.
			groupWeight := make([]float64, c.DeviceGroups)
			for i, g := range pl.deviceGroup {
				groupWeight[g] += pl.weights[i]
			}
			bins := partitionLPT(groupWeight, domains-1)
			pl.groupDomain = make([]int, c.DeviceGroups)
			for g := range pl.groupDomain {
				pl.groupDomain[g] = 1 + bins[g]
			}
			for i, g := range pl.deviceGroup {
				pl.deviceDomain[i] = pl.groupDomain[g]
			}
		} else {
			// Flat topology, partitioned execution: devices spread
			// directly over the non-core domains.
			bins := partitionLPT(pl.weights, domains-1)
			for i, b := range bins {
				pl.deviceDomain[i] = 1 + b
			}
		}
	}
	return pl
}

// domainOfGroup reports the PDES domain of group g's access switch: 0 when
// serial, and 0 for the flat topology's one group, whose access switch is
// lan0 itself.
func (pl placement) domainOfGroup(g int) int {
	if pl.groupDomain == nil {
		return 0
	}
	return pl.groupDomain[g]
}

// partitionLPT assigns each weighted item to one of bins bins, heaviest
// items first, each to the currently lightest bin (ties break toward the
// lowest bin index; equal-weight items keep index order via the stable
// sort, so a uniform fleet degrades to exactly the old round-robin).
func partitionLPT(weights []float64, bins int) []int {
	assign := make([]int, len(weights))
	if bins <= 1 {
		return assign
	}
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return weights[order[a]] > weights[order[b]]
	})
	load := make([]float64, bins)
	for _, idx := range order {
		best := 0
		for b := 1; b < bins; b++ {
			if load[b] < load[best] {
				best = b
			}
		}
		assign[idx] = best
		load[best] += weights[idx]
	}
	return assign
}

// binLoads sums the assigned weight per bin — the quantity the skew test
// bounds.
func binLoads(weights []float64, assign []int, bins int) []float64 {
	load := make([]float64, bins)
	for i, b := range assign {
		load[b] += weights[i]
	}
	return load
}
