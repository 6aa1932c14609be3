package testbed

import (
	"strings"
	"testing"
	"time"

	"ddoshield/internal/container"
	"ddoshield/internal/faults"
	"ddoshield/internal/netsim"
)

// fourKindPlan hits the fleet with four fault kinds: a flap, a fleet-wide
// impairment window, a crash and a partition.
func fourKindPlan() faults.Plan {
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
		Kind: faults.Crash, At: 45 * time.Second, Targets: []string{"dev01*"},
	})
	p.Add(faults.Event{
		Kind: faults.Partition, At: 60 * time.Second, Duration: 10 * time.Second,
		Groups: [][]string{{"dev00*", "dev01*"}, {"dev02*", "dev03*", "dev04*"}},
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
		tb.Injector().Schedule(fourKindPlan())
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

	// The run must have actually injected all four kinds.
	counters := tb1.FaultCounters()
	if len(counters) < 3 {
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

// TestChurnDoesNotResurrectStoppedDevice pins the supervisor-routed churn
// fix: a device stopped by an operator mid-churn stays down instead of
// being revived by a stale reboot callback.
func TestChurnDoesNotResurrectStoppedDevice(t *testing.T) {
	tb, err := New(Config{
		Seed:         7,
		NumDevices:   4,
		ScanInterval: 100 * time.Millisecond,
		Churn: ChurnConfig{
			Enabled:  true,
			MeanUp:   10 * time.Second,
			MeanDown: time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	if err := tb.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	victim := tb.Devices()[0].Container
	victim.Stop()
	if err := tb.Run(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if victim.State() != container.StateStopped {
		t.Fatalf("stopped device was resurrected: %v", victim.State())
	}
	// The rest of the fleet kept churning.
	restarts := 0
	for _, s := range tb.DeviceSupervisors() {
		restarts += s.Restarts()
	}
	if restarts == 0 {
		t.Fatal("churn produced no supervised reboots")
	}
}

// TestFaultCrashedDeviceIsRevivedBySupervisor checks the default (no-churn)
// supervision: a fault-plan crash comes back via RestartOnFailure.
func TestFaultCrashedDeviceIsRevivedBySupervisor(t *testing.T) {
	var p faults.Plan
	p.Add(faults.Event{Kind: faults.Crash, At: 5 * time.Second, Targets: []string{"dev00*"}})
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
	if got := tb.FaultCounters(); len(got) != 1 || got[0].Kind != faults.Crash || got[0].Count != 1 {
		t.Fatalf("fault counters = %v", got)
	}
}
