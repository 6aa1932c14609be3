package container

import (
	"testing"
	"time"

	"ddoshield/internal/netsim"
)

func supervisedContainer(t *testing.T, cfg SupervisorConfig) (*Runtime, *Container, *Supervisor) {
	t.Helper()
	_, rt, sw := testRuntime(t)
	c, err := rt.Create(spec("sup", 20), sw, netsim.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sup := rt.Supervise(c, cfg)
	return rt, c, sup
}

func sched(rt *Runtime) func(d time.Duration) {
	return func(d time.Duration) {
		if err := rt.Network().Scheduler().RunFor(d); err != nil {
			panic(err)
		}
	}
}

func TestSupervisorRestartsCrash(t *testing.T) {
	rt, c, sup := supervisedContainer(t, SupervisorConfig{Policy: RestartAlways})
	run := sched(rt)
	c.Start()
	c.Kill()
	if c.State() != StateStopped || c.Crashes() != 1 {
		t.Fatalf("after Kill: state=%v crashes=%d", c.State(), c.Crashes())
	}
	if !sup.RestartPending() {
		t.Fatal("no restart scheduled after crash")
	}
	run(2 * time.Second)
	if c.State() != StateRunning {
		t.Fatal("crashed container not restarted")
	}
	if sup.Restarts() != 1 {
		t.Fatalf("Restarts() = %d, want 1", sup.Restarts())
	}
}

func TestSupervisorNeverPolicy(t *testing.T) {
	rt, c, sup := supervisedContainer(t, SupervisorConfig{Policy: RestartNever})
	run := sched(rt)
	c.Start()
	c.Kill()
	run(time.Minute)
	if c.State() != StateStopped || sup.Restarts() != 0 {
		t.Fatalf("never policy restarted: state=%v restarts=%d", c.State(), sup.Restarts())
	}
}

func TestSupervisorExponentialBackoffAndCap(t *testing.T) {
	rt, c, sup := supervisedContainer(t, SupervisorConfig{Policy: RestartAlways})
	run := sched(rt)
	c.Start()

	// Crash-loop: each restart is immediately followed by another crash, so
	// every downtime is one rung up the ladder until the 30 s cap.
	ladder := []time.Duration{
		500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second,
		8 * time.Second, 16 * time.Second, 30 * time.Second, 30 * time.Second,
	}
	for i, down := range ladder {
		c.Kill()
		run(down - time.Millisecond)
		if c.State() != StateStopped {
			t.Fatalf("restart %d came before its %v downtime", i+1, down)
		}
		run(time.Millisecond)
		if c.State() != StateRunning || sup.Restarts() != i+1 {
			t.Fatalf("restart %d: state=%v restarts=%d after %v down", i+1, c.State(), sup.Restarts(), down)
		}
	}
}

func TestSupervisorDelayOverride(t *testing.T) {
	var draws int
	rt, c, _ := supervisedContainer(t, SupervisorConfig{
		Policy: RestartAlways,
		Delay: func(restarts int) time.Duration {
			draws++
			return 7 * time.Second
		},
	})
	run := sched(rt)
	c.Start()
	c.Kill()
	run(6 * time.Second)
	if c.State() != StateStopped {
		t.Fatal("restarted before the Delay hook's downtime elapsed")
	}
	run(2 * time.Second)
	if c.State() != StateRunning || draws != 1 {
		t.Fatalf("Delay override not honoured: state=%v draws=%d", c.State(), draws)
	}
}
