package faults

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ddoshield/internal/container"
	"ddoshield/internal/netsim"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
)

// Target is one fault-injectable endpoint: a container and/or its uplink.
type Target struct {
	Name      string
	Container *container.Container
	Link      *netsim.Link
}

// Injector applies fault plans to registered targets. Every fault is
// domain-local by construction: Schedule resolves targets up front (while
// the simulation is single-threaded) and splits each event into sub-events
// placed directly on the scheduler that owns the touched state — the
// container's domain for crashes, each link end's domain for flaps and
// impairment windows, the switch's domain for partitions. A cross-domain
// link is therefore flapped by two sub-events at the same instant, one per
// side, and the whole campaign replays byte-identically whether the run is
// serial or partitioned.
type Injector struct {
	sched   *sim.Scheduler // reference clock for Schedule offsets (domain 0)
	seed    int64
	sw      *netsim.Switch
	targets []Target
	byName  map[string]int
	// counts holds one atomic counter per Kinds() entry; sub-events bump
	// them from their own domains, so they must be race-safe.
	counts [5]telemetry.Counter
	rec    *telemetry.Recorder
}

// NewInjector builds an injector. sw may be nil when partitions are unused.
func NewInjector(sched *sim.Scheduler, seed int64, sw *netsim.Switch) *Injector {
	return &Injector{
		sched:  sched,
		seed:   seed,
		sw:     sw,
		byName: make(map[string]int),
	}
}

// Register adds a named target. Registration order fixes the resolution
// order of globbed target lists, so register in a deterministic order.
func (in *Injector) Register(tg Target) {
	if _, dup := in.byName[tg.Name]; dup {
		return
	}
	in.byName[tg.Name] = len(in.targets)
	in.targets = append(in.targets, tg)
}

// RegisterContainer is Register sugar for a container and its uplink.
func (in *Injector) RegisterContainer(c *container.Container) {
	in.Register(Target{Name: c.Name(), Container: c, Link: c.Link()})
}

// resolve expands a name list (exact, trailing-* glob, or empty for all)
// into targets, in registration order, without duplicates.
func (in *Injector) resolve(names []string) []Target {
	if len(names) == 0 {
		return in.targets
	}
	picked := make([]bool, len(in.targets))
	for _, name := range names {
		if prefix, ok := strings.CutSuffix(name, "*"); ok {
			for i := range in.targets {
				if strings.HasPrefix(in.targets[i].Name, prefix) {
					picked[i] = true
				}
			}
			continue
		}
		if i, ok := in.byName[name]; ok {
			picked[i] = true
		}
	}
	var out []Target
	for i, p := range picked {
		if p {
			out = append(out, in.targets[i])
		}
	}
	return out
}

// Schedule arms every event of the plan relative to the current simulated
// instant. It may be called before the testbed starts (events in the past
// clamp to now) and more than once (plans compose) — but only while no
// simulation events are executing (before Run, or between Run calls),
// because it inserts sub-events onto every owning domain's scheduler
// directly. Targets are resolved here, at scheduling time.
func (in *Injector) Schedule(p Plan) {
	now := in.sched.Now()
	for _, e := range p.Events {
		at := now.Add(e.At)
		switch e.Kind {
		case LinkFlap:
			in.scheduleLinkFlap(at, e)
		case LinkImpair:
			in.scheduleLinkImpair(at, e)
		case Partition:
			in.schedulePartition(at, e)
		case Crash:
			for _, tg := range in.resolve(e.Targets) {
				in.scheduleKill(at, tg)
			}
		case CrashLoop:
			in.scheduleCrashLoop(at, e)
		}
	}
}

// SetTelemetry exposes the per-kind injection counters as registry metrics
// (faults_injections_total{kind=...}, evaluated at export time) and routes
// a trace event per injection into the flight recorder. Either argument
// may be nil.
func (in *Injector) SetTelemetry(reg *telemetry.Registry, rec *telemetry.Recorder) {
	in.rec = rec
	for i, k := range Kinds() {
		c := &in.counts[i]
		reg.RegisterCounterFunc(c.Value, "faults_injections_total", telemetry.L("kind", string(k)))
	}
}

// kindIndex maps a kind to its counter slot (Kinds() order).
func kindIndex(k Kind) int {
	for i, kk := range Kinds() {
		if kk == k {
			return i
		}
	}
	return 0
}

// count tallies one injection of kind k against actor and mirrors it into
// the flight recorder. now must be the clock of the scheduler the firing
// sub-event runs on — in a partitioned run there is no other "now" the
// event may observe.
func (in *Injector) count(k Kind, actor string, now sim.Time) {
	c := &in.counts[kindIndex(k)]
	c.Inc()
	in.rec.Emit(now, telemetry.CatFault, string(k), actor, int64(c.Value()))
}

// containerSide reports which link side the target's container terminates
// (0 when unknown). The container-side sub-event is the one that counts
// the injection and guards its restore on container state — decisions that
// must run in the container's own domain.
func containerSide(tg Target) int {
	if tg.Container == nil || tg.Link == nil {
		return 0
	}
	if s := tg.Link.SideOf(tg.Container.Host().NIC()); s >= 0 {
		return s
	}
	return 0
}

// scheduleLinkFlap cuts each target link at at, one sub-event per side on
// the side's owning scheduler, restoring after Duration. Each sub-event
// reads and writes only its own side's state, so the two sides of a
// cross-domain link flap independently yet at identical instants.
func (in *Injector) scheduleLinkFlap(at sim.Time, e Event) {
	d := e.Duration
	if d <= 0 {
		d = 5 * time.Second
	}
	for _, tg := range in.resolve(e.Targets) {
		if tg.Link == nil {
			continue
		}
		link, c := tg.Link, tg.Container
		name := tg.Name
		ownSide := containerSide(tg)
		for side := 0; side < 2; side++ {
			side := side
			sched := link.SideScheduler(side)
			counting := side == ownSide
			sched.At(at, func() {
				if !link.UpSide(side) {
					return // already down (halted container or overlapping flap)
				}
				link.SetUpSide(side, false)
				if counting {
					in.count(LinkFlap, name, sched.Now())
				}
				sched.After(d, func() {
					// Do not re-cable a container that stopped in the
					// meantime; its next Start raises its side itself. The
					// far side always comes back — nothing else will raise
					// it.
					if counting && c != nil && c.State() != container.StateRunning {
						return
					}
					link.SetUpSide(side, true)
				})
			})
		}
	}
}

// scheduleLinkImpair installs the event's impairment set on each target
// link at at, one sub-event per side, restoring the side's previous set
// after Duration. Every (target, side) gets a private RNG stream — split
// off the event's RNG, or derived from the injector seed — fixed here at
// scheduling time, so the draw sequences are independent of event
// interleaving in either execution mode.
func (in *Injector) scheduleLinkImpair(at sim.Time, e Event) {
	for _, tg := range in.resolve(e.Targets) {
		if tg.Link == nil {
			continue
		}
		base := e.Impair.RNG
		if base == nil {
			base = sim.Substream(in.seed, "faults/impair/"+tg.Name)
		}
		link, name := tg.Link, tg.Name
		ownSide := containerSide(tg)
		for side := 0; side < 2; side++ {
			side := side
			imp := e.Impair
			imp.RNG = sim.NewRNG(base.Int63())
			sched := link.SideScheduler(side)
			counting := side == ownSide
			sched.At(at, func() {
				prev := link.ImpairmentsSide(side)
				link.SetImpairmentsSide(side, imp)
				if counting {
					in.count(LinkImpair, name, sched.Now())
				}
				if e.Duration > 0 {
					sched.After(e.Duration, func() { link.SetImpairmentsSide(side, prev) })
				}
			})
		}
	}
}

// schedulePartition groups the switch's ports at at and heals after
// Duration. Partitions touch only the switch's port-group table, so the
// whole event runs in the switch's domain; SetGroup ignores ports of other
// switches, which makes device uplinks in edge topologies no-ops.
func (in *Injector) schedulePartition(at sim.Time, e Event) {
	if in.sw == nil {
		return
	}
	groups := make([][]Target, len(e.Groups))
	for gi, names := range e.Groups {
		groups[gi] = in.resolve(names)
	}
	sched := in.sw.Scheduler()
	sched.At(at, func() {
		assigned := false
		for gi, tgs := range groups {
			for _, tg := range tgs {
				if tg.Link == nil {
					continue
				}
				for _, p := range tg.Link.Ends() {
					if in.sw.SetGroup(p, gi+1) {
						assigned = true
					}
				}
			}
		}
		if !assigned {
			return
		}
		in.count(Partition, in.sw.Name(), sched.Now())
		d := e.Duration
		if d <= 0 {
			d = 10 * time.Second
		}
		sched.After(d, func() { in.sw.ClearGroups() })
	})
}

// scheduleCrashLoop arms one self-rescheduling kill loop per target, each
// on its own container's scheduler, pacing at Every for Duration.
func (in *Injector) scheduleCrashLoop(at sim.Time, e Event) {
	every := e.Every
	if every <= 0 {
		every = time.Second
	}
	d := e.Duration
	if d <= 0 {
		d = 5 * time.Second
	}
	for _, tg := range in.resolve(e.Targets) {
		if tg.Container == nil {
			continue
		}
		tg := tg
		sched := tg.Container.Scheduler()
		deadline := at.Add(d)
		var tick func()
		tick = func() {
			in.kill(tg)
			if sched.Now() < deadline {
				sched.After(every, tick)
			}
		}
		sched.At(at, tick)
	}
}

// scheduleKill arms one kill on the target container's own scheduler.
func (in *Injector) scheduleKill(at sim.Time, tg Target) {
	if tg.Container == nil {
		return
	}
	tg.Container.Scheduler().At(at, func() { in.kill(tg) })
}

// kill crashes the target if it is running. Runs on the container's
// scheduler: the state check, the kill and the supervisor reaction are all
// container-domain-local.
func (in *Injector) kill(tg Target) {
	if tg.Container == nil || tg.Container.State() != container.StateRunning {
		return
	}
	tg.Container.Kill()
	in.count(Crash, tg.Name, tg.Container.Scheduler().Now())
}

// Counter is one per-kind injection count.
type Counter struct {
	Kind  Kind
	Count uint64
}

// Counters reports how many times each fault kind was injected, sorted by
// kind for deterministic iteration. Crash and CrashLoop kills share the
// Crash counter (each kill is one injection); flaps, impairment windows
// and partitions count one per affected link/switch.
func (in *Injector) Counters() []Counter {
	var out []Counter
	for i, k := range Kinds() {
		if v := in.counts[i].Value(); v > 0 {
			out = append(out, Counter{Kind: k, Count: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// String renders the counters as "kind=n kind=n", sorted, for summaries.
func (in *Injector) String() string {
	cs := in.Counters()
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = fmt.Sprintf("%s=%d", c.Kind, c.Count)
	}
	return strings.Join(parts, " ")
}
