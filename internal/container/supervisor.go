package container

import (
	"fmt"
	"time"

	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
)

// RestartPolicy decides whether a supervisor restarts an exited container —
// the `docker run --restart` analog.
type RestartPolicy int

// Restart policies.
const (
	// RestartNever leaves exited containers down.
	RestartNever RestartPolicy = iota
	// RestartAlways restarts every exit (every exit is a crash, Kill).
	RestartAlways
)

// String renders the policy in `docker ps`-style notation.
func (p RestartPolicy) String() string {
	switch p {
	case RestartNever:
		return "never"
	case RestartAlways:
		return "always"
	}
	return fmt.Sprintf("RestartPolicy(%d)", int(p))
}

// The restart ladder used when SupervisorConfig.Delay is nil: the first
// restart waits backoff, each consecutive failure multiplies the wait by
// backoffFactor up to maxBackoff, and a container that stayed up resetAfter
// starts again from the bottom rung.
const (
	backoff       = 500 * time.Millisecond
	backoffFactor = 2
	maxBackoff    = 30 * time.Second
	resetAfter    = 60 * time.Second
)

// SupervisorConfig sets the restart policy and, optionally, the downtime.
type SupervisorConfig struct {
	// Policy decides which exits trigger a restart.
	Policy RestartPolicy
	// Delay, when set, overrides the exponential ladder entirely: it is
	// called with the supervised-restart count and returns the downtime.
	// The testbed's churn model supplies exponentially distributed
	// reboot outages through this hook.
	Delay func(restarts int) time.Duration
	// OnRestart is invoked after every supervised restart completes.
	OnRestart func(c *Container)
}

// Supervisor watches one container and applies a restart policy with
// exponential backoff — the docker-compose `restart:` analog the
// fault-injection experiments lean on. All of its activity runs on the
// simulation scheduler, so supervised runs stay deterministic.
type Supervisor struct {
	sched *sim.Scheduler
	c     *Container
	cfg   SupervisorConfig

	attempt  int // consecutive-failure streak (backoff ladder rung)
	restarts int // total supervised restarts performed
	pending  sim.Event
}

// Supervise attaches a supervisor to a container that has none.
func (r *Runtime) Supervise(c *Container, cfg SupervisorConfig) *Supervisor {
	s := &Supervisor{sched: c.node.Scheduler(), c: c, cfg: cfg}
	c.sup = s
	return s
}

// Restarts reports supervised restarts performed so far.
func (s *Supervisor) Restarts() int { return s.restarts }

// emit records a supervision trace event in the network's flight recorder,
// stamped with the supervised container's domain clock.
func (s *Supervisor) emit(event string, value int64) {
	net := s.c.runtime.net
	net.Recorder().Emit(s.sched.Now(), telemetry.CatSupervisor, event, s.c.name, value)
}

// noteExit handles a crash exit (Kill).
func (s *Supervisor) noteExit() {
	if s.cfg.Policy == RestartNever {
		return
	}
	// A long healthy run resets the backoff ladder.
	if up := s.c.stopped - s.c.started; up.Duration() >= resetAfter {
		s.attempt = 0
	}
	s.scheduleRestart()
}

func (s *Supervisor) scheduleRestart() {
	if s.pending.Pending() {
		return
	}
	s.attempt++
	var delay time.Duration
	if s.cfg.Delay != nil {
		delay = s.cfg.Delay(s.restarts)
	} else {
		delay = backoff
		for i := 1; i < s.attempt; i++ {
			delay *= backoffFactor
			if delay >= maxBackoff {
				delay = maxBackoff
				break
			}
		}
	}
	s.pending = s.sched.After(delay, func() {
		s.pending = sim.Event{}
		if s.c.State() == StateRunning {
			return
		}
		s.c.Start()
		s.restarts++
		s.emit("restart", int64(s.restarts))
		if s.cfg.OnRestart != nil {
			s.cfg.OnRestart(s.c)
		}
	})
}
