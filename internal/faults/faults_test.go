package faults

import (
	"testing"
	"time"

	"ddoshield/internal/container"
	"ddoshield/internal/netsim"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// rig is a minimal injectable topology: n containers on one switch.
type rig struct {
	sched *sim.Scheduler
	net   *netsim.Network
	rt    *container.Runtime
	cs    []*container.Container
	in    *Injector
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	s := sim.NewScheduler()
	net := netsim.New(s)
	rt := container.NewRuntime(net)
	sw := net.NewSwitch("sw0")
	r := &rig{sched: s, net: net, rt: rt, in: NewInjector(s, 1)}
	for i := 0; i < n; i++ {
		c, err := rt.Create(container.Spec{
			Name: name(i), Image: "test",
			Host: netstack.HostConfig{
				Addr:   packet.AddrFrom4(10, 0, 0, byte(10+i)),
				Subnet: packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 0), Bits: 24},
				Seed:   int64(i),
			},
		}, sw, netsim.LinkConfig{})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		r.cs = append(r.cs, c)
		r.in.Register(c)
	}
	return r
}

func name(i int) string { return "dev0" + string(rune('0'+i)) }

// linkUp reports whether c's access link passes traffic both ways.
func linkUp(c *container.Container) bool {
	return c.Link().UpSide(0) && c.Link().UpSide(1)
}

func (r *rig) run(d time.Duration) {
	if err := r.sched.RunFor(d); err != nil {
		panic(err)
	}
}

func TestInjectorLinkFlap(t *testing.T) {
	r := newRig(t, 2)
	var p Plan
	p.Add(Event{Kind: LinkFlap, At: time.Second, Duration: 3 * time.Second, Targets: []string{"dev00"}})
	r.in.Schedule(p)
	r.run(2 * time.Second)
	if linkUp(r.cs[0]) {
		t.Fatal("link not cut at flap start")
	}
	if !linkUp(r.cs[1]) {
		t.Fatal("flap hit an untargeted link")
	}
	r.run(3 * time.Second)
	if !linkUp(r.cs[0]) {
		t.Fatal("link not restored after flap duration")
	}
	if got := r.in.String(); got != "link-flap=1" {
		t.Fatalf("counters = %s", got)
	}
}

// TestInjectorFlapDoesNotRecableStoppedContainer: a container that crashes
// mid-flap stays cut when the flap ends; its next Start raises its side.
func TestInjectorFlapDoesNotRecableStoppedContainer(t *testing.T) {
	r := newRig(t, 1)
	var p Plan
	p.Add(Event{Kind: LinkFlap, At: time.Second, Duration: 2 * time.Second, Targets: []string{"dev00"}})
	r.in.Schedule(p)
	r.run(2 * time.Second)
	r.cs[0].Kill() // the container crashes mid-flap
	r.run(5 * time.Second)
	if linkUp(r.cs[0]) {
		t.Fatal("flap restore re-cabled a crashed container")
	}
	r.cs[0].Start()
	if !linkUp(r.cs[0]) {
		t.Fatal("restart did not re-cable the container")
	}
}

func TestInjectorImpairAppliesAndRestores(t *testing.T) {
	r := newRig(t, 1)
	var p Plan
	p.Add(Event{
		Kind: LinkImpair, At: time.Second, Duration: 4 * time.Second,
		Targets: []string{"dev00"},
		Impair:  netsim.Impairments{CorruptProb: 0.5},
	})
	r.in.Schedule(p)
	r.run(2 * time.Second)
	im := r.cs[0].Link().ImpairmentsSide(0)
	if im.CorruptProb != 0.5 {
		t.Fatalf("impairment not applied: %+v", im)
	}
	if im.RNG == nil {
		t.Fatal("injector did not fill the impairment RNG")
	}
	r.run(4 * time.Second)
	if r.cs[0].Link().ImpairmentsSide(0).Active() {
		t.Fatal("impairment not restored after window")
	}
}

func TestInjectorCrashLoopFightsSupervisor(t *testing.T) {
	r := newRig(t, 1)
	sup := r.rt.Supervise(r.cs[0], container.SupervisorConfig{
		Policy: container.RestartAlways,
		// A flat 500 ms downtime lets the loop get several rounds in.
		Delay: func(int) time.Duration { return 500 * time.Millisecond },
	})
	var p Plan
	p.Add(Event{Kind: CrashLoop, At: time.Second, Duration: 6 * time.Second, Every: time.Second, Targets: []string{"dev00"}})
	r.in.Schedule(p)
	r.run(20 * time.Second)
	kills := r.cs[0].Crashes()
	if kills < 3 {
		t.Fatalf("crash loop killed only %d times", kills)
	}
	if sup.Restarts() < 2 {
		t.Fatalf("supervisor restarted only %d times under crash loop", sup.Restarts())
	}
	if r.cs[0].State() != container.StateRunning {
		t.Fatal("container not revived once the crash loop ended")
	}
}

func TestRandomPlanDeterministicAndScaled(t *testing.T) {
	cfg := RandomConfig{Seed: 42, Window: time.Minute, Intensity: 1}
	a, b := Random(cfg), Random(cfg)
	if a.String() != b.String() {
		t.Fatalf("same seed produced different plans:\n%s\nvs\n%s", a, b)
	}
	if len(a.Events) == 0 {
		t.Fatal("full-intensity plan is empty")
	}
	kinds := map[Kind]bool{}
	for _, e := range a.Events {
		kinds[e.Kind] = true
	}
	if len(kinds) != 3 {
		t.Fatalf("plan uses %d kinds, want 3 (flaps, impairments, crash loops)", len(kinds))
	}
	cfg.Intensity = 0
	if !Random(cfg).Empty() {
		t.Fatal("zero-intensity plan is not empty")
	}
	cfg.Intensity = 0.3
	if low := Random(cfg); len(low.Events) >= len(a.Events) {
		t.Fatalf("intensity 0.3 produced %d events, full produced %d", len(low.Events), len(a.Events))
	}
	// Events must fit the window (with effect margin).
	for _, e := range a.Events {
		if e.At < 0 || e.At > time.Minute {
			t.Fatalf("event outside window: %+v", e)
		}
	}
}

// TestInjectorCrashAndGlob: a crash loop on a glob kills every matching
// target, and each kill counts as one "crash".
func TestInjectorCrashAndGlob(t *testing.T) {
	r := newRig(t, 3)
	var p Plan
	p.Add(Event{Kind: CrashLoop, At: time.Second, Duration: time.Second, Every: 2 * time.Second, Targets: []string{"dev*"}})
	r.in.Schedule(p)
	r.run(2 * time.Second)
	for i, c := range r.cs {
		if c.State() != container.StateStopped || c.Crashes() != 1 {
			t.Fatalf("container %d not crashed: %v", i, c.State())
		}
	}
	if got := r.in.String(); got != "crash=3" {
		t.Fatalf("counters = %s", got)
	}
}

func TestInjectorCountersSorted(t *testing.T) {
	r := newRig(t, 2)
	var p Plan
	p.Add(Event{Kind: CrashLoop, At: time.Second, Duration: time.Second, Every: 2 * time.Second, Targets: []string{"dev00"}})
	p.Add(Event{Kind: LinkFlap, At: time.Second, Duration: time.Second, Targets: []string{"dev01"}})
	r.in.Schedule(p)
	r.run(3 * time.Second)
	cs := r.in.Counters()
	if len(cs) != 2 || cs[0].Kind != "crash" || cs[1].Kind != LinkFlap {
		t.Fatalf("counters not sorted: %v", cs)
	}
	if s := r.in.String(); s != "crash=1 link-flap=1" {
		t.Fatalf("String() = %q", s)
	}
}
