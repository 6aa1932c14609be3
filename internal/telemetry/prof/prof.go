// Package prof is the simulation profiler: always-on performance
// accounting for PDES campaigns, built around two strictly separated
// planes.
//
// The deterministic plane counts virtual load — events attributed to
// entities (devices, switches, links, IDS units, the fault injector),
// cross-domain traffic by (src,dst) domain pair, epoch window widths, and
// a load-imbalance index. Everything in it derives from simulation state
// alone, so snapshots are byte-identical across runs and across worker
// counts; the virtual-load attribution is additionally evaluated against a
// fixed reference domain layout (see VirtualProfile.EvalDomains) so it is
// byte-identical across Domains settings too.
//
// The wall-clock plane times each domain's epoch phases — execute vs.
// barrier-wait vs. merge — plus the build/start/run/teardown campaign
// phases. It is host-dependent by nature and is excluded from every
// deterministic artifact: Summary, Prometheus snapshots and canonical
// trace spans never read it, which the determinism tests pin.
//
// The Profiler implements sim.EngineProbe. All probe callbacks run on the
// engine's coordinator goroutine against preallocated accumulators, so the
// enabled hot path performs zero allocations (pinned by AllocsPerRun in
// CI). A nil *Profiler is the off state: every method is nil-receiver safe
// and the engine is handed no probe.
package prof

import (
	"time"

	"ddoshield/internal/sim"
)

// Phase identifies one campaign wall-clock phase.
type Phase uint8

const (
	// PhaseBuild covers topology construction (testbed.New).
	PhaseBuild Phase = iota
	// PhaseStart covers container/fleet startup (testbed.Start).
	PhaseStart
	// PhaseRun covers simulation execution (testbed.Run, cumulative
	// across calls).
	PhaseRun
	// PhaseTeardown covers end-of-run artifact rendering and collection.
	PhaseTeardown
	numPhases
)

// String names the phase for reports and JSON.
func (p Phase) String() string {
	switch p {
	case PhaseBuild:
		return "build"
	case PhaseStart:
		return "start"
	case PhaseRun:
		return "run"
	case PhaseTeardown:
		return "teardown"
	}
	return "unknown"
}

// Profiler accumulates one campaign's execution profile. Create with New,
// attach to the engine with sim.Engine.SetProbe, and bracket campaign
// phases with StartPhase/EndPhase. All methods are nil-receiver safe so
// call sites need no profiling-enabled branches.
//
// Concurrency: the engine invokes the probe callbacks from its coordinator
// goroutine only, and the phase timers belong to the campaign driver
// thread; the Profiler therefore needs no internal locking. Snapshot
// methods (WallProfile, engine extras) must not race Run.
type Profiler struct {
	domains int
	// devices sizes the build-rate derivation (build_devices_per_second);
	// 0 leaves the rate unreported.
	devices int

	// Deterministic engine accounting (per (seed, Domains) configuration;
	// independent of the worker count).
	epochs     uint64
	widthMin   sim.Time
	widthMax   sim.Time
	widthSum   uint64
	events     []uint64 // per-domain events, summed over windows
	maxWinEv   []uint64 // per-domain max events in any single window
	cross      []uint64 // KxK cross-domain message matrix, [from*K+to]
	crossTotal uint64

	// Wall-clock plane (never enters deterministic artifacts).
	execNs    []int64
	waitNs    []int64
	mergeNs   int64
	phaseNs   [numPhases]int64
	phaseOpen [numPhases]int64 // UnixNano at StartPhase; 0 when closed
}

// New builds a profiler for a campaign partitioned into domains domains
// (1 for the serial path: phase timers still work, engine accounting
// stays empty).
func New(domains int) *Profiler {
	if domains < 1 {
		domains = 1
	}
	return &Profiler{
		domains:  domains,
		events:   make([]uint64, domains),
		maxWinEv: make([]uint64, domains),
		cross:    make([]uint64, domains*domains),
		execNs:   make([]int64, domains),
		waitNs:   make([]int64, domains),
	}
}

// SetDevices records the fleet size the campaign builds, enabling the
// wall plane's build_devices_per_second derivation.
func (p *Profiler) SetDevices(n int) {
	if p == nil || n < 0 {
		return
	}
	p.devices = n
}

// Domains reports the domain count the profiler was sized for.
func (p *Profiler) Domains() int {
	if p == nil {
		return 0
	}
	return p.domains
}

// OnEpoch implements sim.EngineProbe: accumulate window-width stats and
// the merge wall clock.
func (p *Profiler) OnEpoch(start, end sim.Time, mergeNs int64) {
	if p == nil {
		return
	}
	width := end - start
	if p.epochs == 0 || width < p.widthMin {
		p.widthMin = width
	}
	if width > p.widthMax {
		p.widthMax = width
	}
	p.widthSum += uint64(width)
	p.epochs++
	p.mergeNs += mergeNs
}

// OnCrossMessages implements sim.EngineProbe: count one merged outbox into
// the (from,to) matrix cell.
func (p *Profiler) OnCrossMessages(from, to, n int) {
	if p == nil || from < 0 || to < 0 || from >= p.domains || to >= p.domains {
		return
	}
	p.cross[from*p.domains+to] += uint64(n)
	p.crossTotal += uint64(n)
}

// OnDomainWindow implements sim.EngineProbe: accumulate one domain's
// per-window event count and execute/barrier-wait wall clock.
func (p *Profiler) OnDomainWindow(domain int, events uint64, execNs, waitNs int64) {
	if p == nil || domain < 0 || domain >= p.domains {
		return
	}
	p.events[domain] += events
	if events > p.maxWinEv[domain] {
		p.maxWinEv[domain] = events
	}
	p.execNs[domain] += execNs
	p.waitNs[domain] += waitNs
}

// StartPhase opens one campaign phase's wall-clock timer. Phases may be
// opened and closed repeatedly (PhaseRun often is); the durations
// accumulate.
func (p *Profiler) StartPhase(ph Phase) {
	if p == nil || ph >= numPhases {
		return
	}
	p.phaseOpen[ph] = time.Now().UnixNano()
}

// EndPhase closes a phase opened by StartPhase, folding the elapsed wall
// clock into the phase total. Closing a phase that is not open is a no-op.
func (p *Profiler) EndPhase(ph Phase) {
	if p == nil || ph >= numPhases {
		return
	}
	if open := p.phaseOpen[ph]; open != 0 {
		p.phaseNs[ph] += time.Now().UnixNano() - open
		p.phaseOpen[ph] = 0
	}
}

// PhaseNs reports the accumulated wall clock of one phase.
func (p *Profiler) PhaseNs(ph Phase) int64 {
	if p == nil || ph >= numPhases {
		return 0
	}
	return p.phaseNs[ph]
}
