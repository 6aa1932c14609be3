// Package prof is the simulation profiler: performance accounting for
// campaigns, kept on every run and built around two strictly separated
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
// The wall-clock plane is each domain's execute vs. barrier-wait time and
// the merge time, which the PDES engine measures itself (sim.Domain.Wall,
// sim.Engine.MergeNs), plus the build/start/run/teardown campaign phases
// timed here. It is host-dependent by nature and is excluded from every
// deterministic artifact: Summary, Prometheus snapshots and canonical
// trace spans never read it, which the determinism tests pin.
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

// Profiler times one campaign's phases and reads the wall-clock side of
// its engine. Create with New and bracket campaign phases with
// StartPhase/EndPhase.
//
// Concurrency: the phase timers belong to the campaign driver thread, and
// WallProfile reads the engine, so it must not race Run.
type Profiler struct {
	engine *sim.Engine // nil on a serial run
	// devices sizes the build-rate derivation (build_devices_per_second);
	// 0 leaves the rate unreported.
	devices int

	phaseNs   [numPhases]int64
	phaseOpen [numPhases]int64 // UnixNano at StartPhase; 0 when closed
}

// New builds a profiler for a campaign of devices devices running on
// engine (nil for a serial run: the phase timers still work).
func New(engine *sim.Engine, devices int) *Profiler {
	return &Profiler{engine: engine, devices: max(devices, 0)}
}

// StartPhase opens one campaign phase's wall-clock timer. Phases may be
// opened and closed repeatedly (PhaseRun often is); the durations
// accumulate.
func (p *Profiler) StartPhase(ph Phase) {
	p.phaseOpen[ph] = time.Now().UnixNano()
}

// EndPhase closes a phase opened by StartPhase, folding the elapsed wall
// clock into the phase total. Closing a phase that is not open is a no-op.
func (p *Profiler) EndPhase(ph Phase) {
	if open := p.phaseOpen[ph]; open != 0 {
		p.phaseNs[ph] += time.Now().UnixNano() - open
		p.phaseOpen[ph] = 0
	}
}
