package testbed

import (
	"strings"
	"testing"
	"time"

	"ddoshield/internal/container"
	"ddoshield/internal/faults"
	"ddoshield/internal/netsim"
	"ddoshield/internal/sim"
)

// threeKindPlan hits the fleet with every fault kind: a flap, a fleet-wide
// impairment window and a crash loop.
func threeKindPlan() faults.Plan {
	var p faults.Plan
	p.Add(faults.Event{
		Kind: faults.LinkFlap, At: 20 * time.Second, Duration: 4 * time.Second,
		Targets: []string{"dev00*"},
	})
	p.Add(faults.Event{
		Kind: faults.LinkImpair, At: 30 * time.Second, Duration: 25 * time.Second,
		Targets: []string{"dev*"},
		Impair:  netsim.Impairments{LossProb: 0.05, CorruptProb: 0.05, DupProb: 0.02},
	})
	p.Add(faults.Event{
		Kind: faults.CrashLoop, At: 45 * time.Second, Duration: 10 * time.Second,
		Every: 2 * time.Second, Targets: []string{"dev01*", "dev03*"},
	})
	return p
}

// TestFaultedRunsAreDeterministic is the determinism regression test: two
// testbed runs with the same seed, the same fault plan and churn enabled
// must produce byte-identical summaries.
func TestFaultedRunsAreDeterministic(t *testing.T) {
	run := func() (*Testbed, string) {
		tb, err := New(Config{
			Seed:         31,
			NumDevices:   5,
			MeanThink:    2 * time.Second,
			ScanInterval: 100 * time.Millisecond,
			Churn: ChurnConfig{
				Enabled:  true,
				MeanUp:   40 * time.Second,
				MeanDown: 2 * time.Second,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		tb.Start()
		tb.Injector().Schedule(threeKindPlan())
		tb.ScheduleAttackWave(40*time.Second, 3*time.Second,
			tb.DefaultAttackWave(10*time.Second, 200))
		if err := tb.Run(2 * time.Minute); err != nil {
			t.Fatal(err)
		}
		return tb, tb.Summary()
	}
	tb1, s1 := run()
	_, s2 := run()
	if s1 != s2 {
		t.Fatalf("same-seed faulted runs diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", s1, s2)
	}

	// The run must have actually injected all three kinds.
	counters := tb1.FaultCounters()
	if len(counters) != 3 {
		t.Fatalf("only %d fault kinds injected: %v", len(counters), counters)
	}
	for _, c := range counters {
		if c.Count == 0 {
			t.Fatalf("fault kind %s has a zero counter", c.Kind)
		}
	}
	if !strings.Contains(s1, "faults") {
		t.Fatalf("summary missing fault counters:\n%s", s1)
	}
	// The Mirai campaign must have survived the fault campaign: the
	// attacker kept conscripting devices even as churn and crashes wiped
	// infections.
	if _, _, _, infections := tb1.Attacker().Stats(); infections < 3 {
		t.Fatalf("campaign stalled under faults: %d infections\n%s", infections, s1)
	}
	if !strings.Contains(s1, "devices      total=5") {
		t.Fatalf("summary missing fleet line:\n%s", s1)
	}
}

// TestChurnTimerDoesNotKillRestartedDevice pins the churn generation
// counter: a crash lands before a device's first reboot timer,
// the supervisor restarts the device and arms a new timer, and the old one
// must then fire without killing the restarted device. The device's churn
// draws are replayed from its stream to place the crash and the horizon.
func TestChurnTimerDoesNotKillRestartedDevice(t *testing.T) {
	cfg := Config{
		Seed:       7,
		NumDevices: 2,
		Churn:      ChurnConfig{Enabled: true, MeanUp: time.Minute, MeanDown: time.Second},
	}
	rng := sim.KeyedStream(cfg.Seed, churnStreamKey, 0)
	up0 := time.Duration(rng.Exp(float64(cfg.Churn.MeanUp)))    // the first timer, armed at Start
	down := time.Duration(rng.Exp(float64(cfg.Churn.MeanDown))) // the outage after the crash
	up1 := time.Duration(rng.Exp(float64(cfg.Churn.MeanUp)))    // the timer armed at the restart
	crashAt := up0 / 2
	horizon := up0 + time.Second
	if crashAt+down >= up0 || crashAt+down+up1 <= horizon {
		t.Fatalf("seed %d does not set the scene: up0=%v down=%v up1=%v", cfg.Seed, up0, down, up1)
	}
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	c := tb.Devices()[0].Container
	c.Scheduler().At(sim.FromDuration(crashAt), c.Kill)
	if err := tb.Run(horizon); err != nil {
		t.Fatal(err)
	}
	if c.Crashes() != 1 || c.State() != container.StateRunning {
		t.Fatalf("crashes=%d state=%v, want the one crash and a running device",
			c.Crashes(), c.State())
	}
	if sup := tb.DeviceSupervisors()[0]; sup.Restarts() != 1 {
		t.Fatalf("supervised restarts = %d, want 1", sup.Restarts())
	}
}

// TestFaultCrashedDeviceIsRevivedBySupervisor checks the default (no-churn)
// supervision: a device a crash loop kills comes back via RestartAlways once
// the loop ends. The loop's window ends before its second tick, so it kills
// once.
func TestFaultCrashedDeviceIsRevivedBySupervisor(t *testing.T) {
	var p faults.Plan
	p.Add(faults.Event{Kind: faults.CrashLoop, At: 5 * time.Second, Duration: time.Second,
		Every: time.Minute, Targets: []string{"dev00*"}})
	tb, err := New(Config{Seed: 3, NumDevices: 2})
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	tb.Injector().Schedule(p)
	if err := tb.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	c := tb.Devices()[0].Container
	if c.Crashes() == 0 {
		t.Fatal("fault plan did not crash the device")
	}
	if c.State() != container.StateRunning {
		t.Fatalf("crashed device not revived: %v", c.State())
	}
	if got := tb.FaultCounters(); len(got) != 1 || got[0].Kind != "crash" || got[0].Count != 1 {
		t.Fatalf("fault counters = %v", got)
	}
}

// TestEveryFaultCounterCounts: a full-intensity faults.Random campaign on a
// small fleet moves every faults_injections_total series the registry
// exports. A series no plan can move (a kind the injector never counts)
// fails here.
func TestEveryFaultCounterCounts(t *testing.T) {
	tb, err := New(Config{Seed: 5, NumDevices: 6})
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	tb.Injector().Schedule(faults.Random(faults.RandomConfig{
		Seed: 5, Start: time.Second, Window: 30 * time.Second, Intensity: 1,
	}))
	if err := tb.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	series := 0
	for _, s := range tb.Registry().Snapshot() {
		if s.Name != "faults_injections_total" {
			continue
		}
		series++
		if s.Value == 0 {
			t.Errorf("faults_injections_total%s stayed 0 under a full-intensity campaign", s.Labels)
		}
	}
	if series == 0 {
		t.Fatal("the registry exports no faults_injections_total series")
	}
}
