package testbed

import (
	"ddoshield/internal/container"
	"ddoshield/internal/netsim"
	"ddoshield/internal/telemetry/prof"
)

// Virtual-load attribution. The testbed records, at build time, the
// structural identity of every link's two endpoints (core subtree, device
// group subtree, or individual device). VirtualProfile replays those
// identities through the deterministic partitioner at a caller-chosen
// reference domain count, so the attribution describes the topology's
// intrinsic load shape — it is a pure function of (config, simulated
// traffic) and byte-identical no matter how many Domains the run actually
// executed with.

// linkEnd kinds.
const (
	endCore   = iota // core subtree: lan0, TServer, IDS, C2, attacker
	endGroup         // a device group's subtree: edge switch, edge server (the core itself when flat)
	endDevice        // one device (its group's access switch is the far end)
)

// linkEnd is one structural link endpoint; idx is the group or device
// index (unused for endCore).
type linkEnd struct {
	kind int
	idx  int
}

// evalDomain maps the endpoint into a reference placement.
func (e linkEnd) evalDomain(pl placement) int {
	switch e.kind {
	case endGroup:
		return pl.domainOfGroup(e.idx)
	case endDevice:
		return pl.deviceDomain[e.idx]
	}
	return 0
}

// profLink pairs a link with its two structural endpoints in netsim end
// order (a = ends[0], b = ends[1]).
type profLink struct {
	link *netsim.Link
	a, b linkEnd
}

// trackLink records one link's endpoint identities for attribution.
func (tb *Testbed) trackLink(l *netsim.Link, a, b linkEnd) {
	tb.profLinks = append(tb.profLinks, profLink{link: l, a: a, b: b})
}

// Profiler exposes the campaign's wall-clock profiler: its phase timers
// and, through it, the engine's own timing. Never nil.
func (tb *Testbed) Profiler() *prof.Profiler { return tb.prof }

// VirtualProfile builds the deterministic virtual-load attribution at the
// given reference domain count (<= 0 picks DeviceGroups+1, the maximal
// one-domain-per-group partitioning). It reads only simulation counters,
// so it is the same on a serial and a partitioned testbed.
func (tb *Testbed) VirtualProfile(evalDomains int) *prof.VirtualProfile {
	if evalDomains <= 0 {
		evalDomains = tb.cfg.DeviceGroups + 1
	}
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
	for _, p := range tb.profLinks {
		entities = append(entities, prof.Entity{
			Name: p.link.String(), Kind: prof.KindLink, Domain: -1,
			Events: p.link.Counters().TxFrames,
		})
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

	// Cross-domain frame matrix: a link whose structural endpoints land in
	// different reference domains contributes each direction's frame count
	// to its (src,dst) pair.
	matrix := make([]uint64, evalDomains*evalDomains)
	for _, p := range tb.profLinks {
		da, db := p.a.evalDomain(pl), p.b.evalDomain(pl)
		if da == db {
			continue
		}
		matrix[da*evalDomains+db] += p.link.CountersSide(0).TxFrames
		matrix[db*evalDomains+da] += p.link.CountersSide(1).TxFrames
	}
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
func (tb *Testbed) Profile(evalDomains int) *prof.Profile {
	p := &prof.Profile{Virtual: tb.VirtualProfile(evalDomains), Wall: tb.prof.WallProfile()}
	if tb.engine != nil {
		p.Engine = prof.BuildEngine(tb.engine)
	}
	return p
}

// BottleneckReport digests the profile into the straggler/bottleneck
// findings (see prof.BuildReport).
func (tb *Testbed) BottleneckReport(evalDomains int) *prof.Report {
	return prof.BuildReport(tb.Profile(evalDomains))
}
