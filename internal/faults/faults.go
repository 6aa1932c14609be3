// Package faults is the deterministic fault-injection engine of the
// testbed: a Plan is a clock-aligned timeline of fault events (link flaps,
// link impairment windows and crash loops) that Random generates, and an
// Injector applies it to the device fleet on the simulation scheduler.
// Every random draw comes from seeded sim.RNG substreams, so a run with the
// same seed and the same plan reproduces bit-for-bit — the property the
// determinism regression tests rely on.
//
// The design follows the reproducible failure-scenario discipline of the
// Gotham testbed and the stress-condition methodology of lean IoT-cloud
// simulation frameworks: faults are data (a Plan), not ad-hoc goroutines,
// so scenarios can be generated, persisted and replayed.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"ddoshield/internal/netsim"
	"ddoshield/internal/sim"
)

// Kind identifies a fault type.
type Kind string

// Fault kinds.
const (
	// LinkFlap cuts each target's uplink, restoring it after Duration.
	LinkFlap Kind = "link-flap"
	// LinkImpair applies Impair to each target's uplink for Duration
	// (0 = until the end of the run), then restores what was there before.
	LinkImpair Kind = "link-impair"
	// CrashLoop kills each target container at Every intervals for
	// Duration, crashing it again as soon as its supervisor revives it.
	// Each kill counts as one "crash" injection.
	CrashLoop Kind = "crash-loop"
)

// Event is one timeline entry of a fault plan.
type Event struct {
	// At is the injection instant, relative to Injector.Schedule.
	At time.Duration
	// Duration bounds the fault (flap outage, impairment window, crash-loop
	// window).
	Duration time.Duration
	// Every paces CrashLoop re-kills (default 1 s).
	Every time.Duration
	// Kind selects the fault type.
	Kind Kind
	// Targets names the containers to hit. Exact names, a trailing-*
	// prefix glob ("dev*"), or empty for every registered target.
	Targets []string
	// Impair carries the LinkImpair settings. A nil Impair.RNG is filled
	// with a per-link substream by the injector, keeping runs reproducible
	// without the plan author threading RNGs around.
	Impair netsim.Impairments
}

// Plan is a clock-aligned timeline of fault events.
type Plan struct {
	Events []Event
}

// Add appends an event and returns the plan for chaining.
func (p *Plan) Add(e Event) *Plan {
	p.Events = append(p.Events, e)
	return p
}

// Empty reports whether the plan schedules nothing.
func (p Plan) Empty() bool { return len(p.Events) == 0 }

// RandomConfig parameterizes Random plan generation.
type RandomConfig struct {
	// Seed drives every placement and sizing draw.
	Seed int64
	// Start and Window bound the interval faults are placed in; events
	// land in [Start, Start+0.8*Window] so their effects fit the run.
	Start  time.Duration
	Window time.Duration
	// Intensity in [0, 1] scales both event counts and impairment
	// probabilities; 0 yields an empty plan.
	Intensity float64
}

// Random builds a reproducible plan of link flaps, impairment windows and
// crash loops against the devices, whose expected fault counts scale with
// Intensity: at full intensity four flaps, three impairment windows and
// three crash loops per window.
func Random(cfg RandomConfig) Plan {
	var p Plan
	if cfg.Intensity <= 0 || cfg.Window <= 0 {
		return p
	}
	if cfg.Intensity > 1 {
		cfg.Intensity = 1
	}
	rng := sim.Substream(cfg.Seed, "faults/random-plan")
	span := time.Duration(float64(cfg.Window) * 0.8)
	place := func() time.Duration {
		return cfg.Start + time.Duration(rng.Uniform(0, float64(span)))
	}
	hold := func(lo, hi time.Duration) time.Duration {
		return time.Duration(rng.Uniform(float64(lo), float64(hi)))
	}
	count := func(base float64) int {
		return int(math.Ceil(base * cfg.Intensity))
	}
	devices := []string{"dev*"} // the victims: every device
	pick := func() []string { return []string{sim.Pick(rng, devices)} }
	for i := 0; i < count(4); i++ {
		p.Add(Event{Kind: LinkFlap, At: place(), Duration: hold(time.Second, 5*time.Second), Targets: pick()})
	}
	for i := 0; i < count(3); i++ {
		p.Add(Event{
			Kind: LinkImpair, At: place(), Duration: hold(5*time.Second, 15*time.Second),
			Targets: pick(),
			Impair: netsim.Impairments{
				LossProb:    0.02 * cfg.Intensity,
				CorruptProb: 0.05 * cfg.Intensity,
				DupProb:     0.02 * cfg.Intensity,
				ReorderProb: 0.05 * cfg.Intensity,
			},
		})
	}
	for i := 0; i < count(3); i++ {
		p.Add(Event{
			Kind: CrashLoop, At: place(), Duration: hold(5*time.Second, 10*time.Second),
			Every: time.Second, Targets: pick(),
		})
	}
	// Timeline order (stable on ties) keeps plan dumps readable.
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p
}

// String renders the plan as one line per event, in timeline order.
func (p Plan) String() string {
	var b strings.Builder
	for _, e := range p.Events {
		fmt.Fprintf(&b, "%8s %-11s dur=%-6s targets=%v\n", e.At, e.Kind, e.Duration, e.Targets)
	}
	return b.String()
}
