package testbed

import (
	"ddoshield/internal/container"
	"ddoshield/internal/netsim"
	"ddoshield/internal/telemetry/prof"
)

// Virtual-load attribution. VirtualProfile re-evaluates the deterministic
// partitioner at a reference domain count of DeviceGroups+1 and reads every
// link's two endpoints off that placement (core subtree, device group
// subtree, or individual device), so the attribution describes the
// topology's intrinsic load shape — it is a pure function of (config,
// simulated traffic) and byte-identical no matter how many Domains the run
// actually executed with.

// Profiler exposes the campaign's wall-clock profiler: its phase timers
// and, through it, the engine's own timing. Never nil.
func (tb *Testbed) Profiler() *prof.Profiler { return tb.prof }

// VirtualProfile builds the deterministic virtual-load attribution at the
// reference domain count DeviceGroups+1, the maximal one-domain-per-group
// partitioning. It reads only simulation counters, so it is the same on a
// serial and a partitioned testbed.
func (tb *Testbed) VirtualProfile() *prof.VirtualProfile {
	evalDomains := tb.cfg.DeviceGroups + 1
	pl := tb.cfg.layoutDomains(evalDomains)

	nicEvents := func(c *container.Container) uint64 {
		rxF, _, txF, _ := c.Host().NIC().Stats()
		return rxF + txF
	}
	var entities []prof.Entity
	for _, c := range []*container.Container{tb.tserver, tb.idsC, tb.c2C, tb.attackerC} {
		entities = append(entities, prof.Entity{
			Name: c.Name(), Kind: prof.KindHost, Domain: 0, Events: nicEvents(c),
		})
	}
	for g, c := range tb.edgeCs {
		entities = append(entities, prof.Entity{
			Name: c.Name(), Kind: prof.KindHost, Domain: pl.domainOfGroup(g), Events: nicEvents(c),
		})
	}
	swEvents := func(sw *netsim.Switch) uint64 { fwd, fld := sw.Stats(); return fwd + fld }
	entities = append(entities, prof.Entity{
		Name: tb.sw.Name(), Kind: prof.KindSwitch, Domain: 0, Events: swEvents(tb.sw),
	})
	for g, esw := range tb.edgeSws {
		entities = append(entities, prof.Entity{
			Name: esw.Name(), Kind: prof.KindSwitch, Domain: pl.domainOfGroup(g), Events: swEvents(esw),
		})
	}
	for i := range tb.devs {
		c := tb.devs[i].Container
		entities = append(entities, prof.Entity{
			Name: c.Name(), Kind: prof.KindDevice, Domain: pl.deviceDomain[i], Events: nicEvents(c),
		})
	}
	// Links in creation order — the core containers', the trunks, the edge
	// servers', the devices' — each with its ends' reference domains in
	// netsim end order. A link whose ends land in different domains adds
	// each direction's frame count to the cross-domain matrix.
	matrix := make([]uint64, evalDomains*evalDomains)
	addLink := func(l *netsim.Link, a, b int) {
		entities = append(entities, prof.Entity{
			Name: l.String(), Kind: prof.KindLink, Domain: -1, Events: l.Counters().TxFrames,
		})
		if a != b {
			matrix[a*evalDomains+b] += l.CountersSide(0).TxFrames
			matrix[b*evalDomains+a] += l.CountersSide(1).TxFrames
		}
	}
	for _, c := range []*container.Container{tb.tserver, tb.idsC, tb.c2C, tb.attackerC} {
		addLink(c.Link(), 0, 0)
	}
	for g, l := range tb.trunks {
		addLink(l, 0, pl.domainOfGroup(g))
	}
	for g, c := range tb.edgeCs {
		addLink(c.Link(), pl.domainOfGroup(g), pl.domainOfGroup(g))
	}
	for i := range tb.devs {
		addLink(tb.devs[i].Container.Link(), pl.deviceDomain[i], pl.domainOfGroup(pl.deviceGroup[i]))
	}
	for _, u := range tb.idsUnits {
		entities = append(entities, prof.Entity{
			Name: "ids:" + u.Name(), Kind: prof.KindIDS, Domain: 0, Events: u.PacketsSeen(),
		})
	}
	var injected uint64
	for _, c := range tb.injector.Counters() {
		injected += c.Count
	}
	entities = append(entities, prof.Entity{
		Name: "faults", Kind: prof.KindFaults, Domain: -1, Events: injected,
	})

	var cross []prof.CrossLoad
	for from := 0; from < evalDomains; from++ {
		for to := 0; to < evalDomains; to++ {
			if n := matrix[from*evalDomains+to]; n > 0 {
				cross = append(cross, prof.CrossLoad{From: from, To: to, Count: n})
			}
		}
	}
	return prof.BuildVirtual(evalDomains, entities, cross, 10)
}

// Profile assembles the combined three-section document: the deterministic
// virtual plane, the engine plane (partitioned runs) and the wall-clock
// plane. See the prof package for the contract separating the planes.
func (tb *Testbed) Profile() *prof.Profile {
	p := &prof.Profile{Virtual: tb.VirtualProfile(), Wall: tb.prof.WallProfile()}
	if tb.engine != nil {
		p.Engine = prof.BuildEngine(tb.engine)
	}
	return p
}

// BottleneckReport digests the profile into the straggler/bottleneck
// findings (see prof.BuildReport).
func (tb *Testbed) BottleneckReport() *prof.Report {
	return prof.BuildReport(tb.Profile())
}
