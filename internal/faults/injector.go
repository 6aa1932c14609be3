package faults

import (
	"fmt"
	"strings"
	"time"

	"ddoshield/internal/container"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
)

// Injector applies fault plans to registered targets. Every fault is
// domain-local by construction: Schedule resolves targets up front (while
// the simulation is single-threaded) and splits each event into sub-events
// placed directly on the scheduler that owns the touched state — the
// container's domain for crash-loop kills, each link end's domain for flaps
// and impairment windows. A cross-domain link is therefore flapped by two
// sub-events at the same instant, one per side, and the whole campaign
// replays byte-identically whether the run is serial or partitioned.
type Injector struct {
	sched   *sim.Scheduler // reference clock for Schedule offsets (domain 0)
	seed    int64
	targets []*container.Container // each with its uplink
	byName  map[string]int
	// tally holds each scheduled target's own count of each kind. resolve
	// makes a target's row, single-threaded; from then on only the target's
	// domain writes it, so the count a fault event carries into the flight
	// recorder does not depend on how domains interleave. The totals are
	// summed when read, which is while no domain runs (export, Summary).
	tally map[*container.Container]*[len(counted)]uint64
	rec   *telemetry.Recorder
}

// What the injector counts, one counter each, in name order: a crash loop's
// every kill is one "crash", a flap or impairment window one per link.
const (
	crashed = iota
	flapped
	impaired
)

var counted = [...]Kind{crashed: "crash", flapped: LinkFlap, impaired: LinkImpair}

// NewInjector builds an injector.
func NewInjector(sched *sim.Scheduler, seed int64) *Injector {
	return &Injector{
		sched:  sched,
		seed:   seed,
		byName: make(map[string]int),
		tally:  make(map[*container.Container]*[len(counted)]uint64),
	}
}

// Register adds a container and its uplink as a target, under the
// container's (runtime-unique) name. Registration order fixes the
// resolution order of globbed target lists, so register in a deterministic
// order.
func (in *Injector) Register(c *container.Container) {
	in.byName[c.Name()] = len(in.targets)
	in.targets = append(in.targets, c)
}

// resolve expands a name list (exact, trailing-* glob, or empty for all)
// into targets, in registration order, without duplicates, and gives each
// its tally row.
func (in *Injector) resolve(names []string) []*container.Container {
	out := in.targets
	if len(names) > 0 {
		picked := make([]bool, len(in.targets))
		for _, name := range names {
			if prefix, ok := strings.CutSuffix(name, "*"); ok {
				for i := range in.targets {
					if strings.HasPrefix(in.targets[i].Name(), prefix) {
						picked[i] = true
					}
				}
				continue
			}
			if i, ok := in.byName[name]; ok {
				picked[i] = true
			}
		}
		out = nil
		for i, p := range picked {
			if p {
				out = append(out, in.targets[i])
			}
		}
	}
	for _, c := range out {
		if in.tally[c] == nil {
			in.tally[c] = new([len(counted)]uint64)
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
	for i, k := range counted {
		reg.RegisterCounterFunc(func() uint64 { return in.total(i) }, "faults_injections_total", telemetry.L("kind", string(k)))
	}
}

// count tallies one injection (a counted index) against target c and
// mirrors it into the flight recorder, valued with c's own count of the
// kind. now must be the clock of the scheduler the firing sub-event runs on,
// the target's domain — in a partitioned run there is no other "now" the
// event may observe.
func (in *Injector) count(i int, c *container.Container, now sim.Time) {
	row := in.tally[c]
	row[i]++
	in.rec.Emit(now, telemetry.CatFault, string(counted[i]), c.Name(), int64(row[i]))
}

// containerSide reports which side of its uplink the container terminates.
// The container-side sub-event is the one that counts the injection and
// guards its restore on container state — decisions that must run in the
// container's own domain.
func containerSide(c *container.Container) int {
	return max(c.Link().SideOf(c.Host().NIC()), 0)
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
	for _, c := range in.resolve(e.Targets) {
		link := c.Link()
		ownSide := containerSide(c)
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
					in.count(flapped, c, sched.Now())
				}
				sched.After(d, func() {
					// Do not re-cable a container that stopped in the
					// meantime; its next Start raises its side itself. The
					// far side always comes back — nothing else will raise
					// it.
					if counting && c.State() != container.StateRunning {
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
	for _, c := range in.resolve(e.Targets) {
		link, name := c.Link(), c.Name()
		base := e.Impair.RNG
		if base == nil {
			base = sim.Substream(in.seed, "faults/impair/"+name)
		}
		ownSide := containerSide(c)
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
					in.count(impaired, c, sched.Now())
				}
				if e.Duration > 0 {
					sched.After(e.Duration, func() { link.SetImpairmentsSide(side, prev) })
				}
			})
		}
	}
}

// scheduleCrashLoop arms one self-rescheduling kill loop per target, each
// on its own container's scheduler, killing at At, At+Every, ... while the
// kill falls before At+Duration.
func (in *Injector) scheduleCrashLoop(at sim.Time, e Event) {
	every := e.Every
	if every <= 0 {
		every = time.Second
	}
	d := e.Duration
	if d <= 0 {
		d = 5 * time.Second
	}
	for _, c := range in.resolve(e.Targets) {
		sched := c.Scheduler()
		deadline := at.Add(d)
		var tick func()
		tick = func() {
			in.kill(c)
			if next := sched.Now().Add(every); next < deadline {
				sched.At(next, tick)
			}
		}
		sched.At(at, tick)
	}
}

// kill crashes the container if it is running. Runs on the container's
// scheduler: the state check, the kill and the supervisor reaction are all
// container-domain-local.
func (in *Injector) kill(c *container.Container) {
	if c.State() != container.StateRunning {
		return
	}
	c.Kill()
	in.count(crashed, c, c.Scheduler().Now())
}

// total sums every target's count of counted index i.
func (in *Injector) total(i int) uint64 {
	var n uint64
	for _, row := range in.tally {
		n += row[i]
	}
	return n
}

// Counter is one per-kind injection count.
type Counter struct {
	Kind  Kind
	Count uint64
}

// Counters reports the non-zero injection counts, sorted by kind: "crash"
// (each crash-loop kill), "link-flap" and "link-impair" (one per affected
// link).
func (in *Injector) Counters() []Counter {
	var out []Counter
	for i, k := range counted {
		if v := in.total(i); v > 0 {
			out = append(out, Counter{Kind: k, Count: v})
		}
	}
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
