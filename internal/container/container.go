// Package container provides the Docker-container analog of the testbed:
// named, isolated execution contexts that host an application (an IoT
// binary, the attacker toolkit, the target servers or the IDS), own a
// network stack bound to a simulated NIC, and accumulate the compute time
// charged to them. The paper uses Docker for these observable properties —
// isolation, a network namespace bridged into NS-3, and `docker stats`-style
// CPU metrics — which this package reproduces inside the simulation
// process.
package container

import (
	"fmt"
	"time"

	"ddoshield/internal/netsim"
	"ddoshield/internal/netstack"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
)

// State is a container lifecycle state.
type State int

// Container lifecycle states.
const (
	StateCreated State = iota + 1
	StateRunning
	StateStopped
)

// String renders the lifecycle state.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateStopped:
		return "stopped"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// App is the workload a container hosts. Start is invoked when the
// container starts and must register all simulation callbacks; Stop must
// cancel them.
type App interface {
	Start(c *Container)
	Stop()
}

// AppFuncs adapts a pair of functions to the App interface.
type AppFuncs struct {
	OnStart func(c *Container)
	OnStop  func()
}

// Start implements App.
func (a AppFuncs) Start(c *Container) {
	if a.OnStart != nil {
		a.OnStart(c)
	}
}

// Stop implements App.
func (a AppFuncs) Stop() {
	if a.OnStop != nil {
		a.OnStop()
	}
}

var _ App = AppFuncs{}

// Runtime creates and tracks containers, the way a Docker daemon does.
type Runtime struct {
	net    *netsim.Network
	byName map[string]*Container
}

// NewRuntime returns a runtime attached to the simulated network.
func NewRuntime(net *netsim.Network) *Runtime {
	return &Runtime{net: net, byName: make(map[string]*Container)}
}

// Spec describes a container to create.
type Spec struct {
	// Name is the unique container name ("attacker", "tserver", "ids", ...).
	Name string
	// Image is a free-form label recorded for diagnostics ("mirai:latest").
	Image string
	// Host configures the container's network stack.
	Host netstack.HostConfig
	// App is the hosted workload (may be nil for bare network containers).
	App App
	// Domain assigns the container's node to a PDES domain when the
	// network is partitioned; ignored (everything is domain 0) otherwise.
	Domain int
}

// Create provisions a container with its own node, NIC and network stack,
// and wires the NIC to the given switch port via link config cfg.
func (r *Runtime) Create(spec Spec, sw *netsim.Switch, link netsim.LinkConfig) (*Container, error) {
	if _, dup := r.byName[spec.Name]; dup {
		return nil, fmt.Errorf("container %q already exists", spec.Name)
	}
	node := r.net.NewNodeInDomain(spec.Name, spec.Domain)
	nic := node.AddNIC()
	port := sw.NewPort()
	l := r.net.Connect(nic, port, link)
	host := netstack.NewHost(nic, spec.Host)
	c := &Container{
		runtime: r,
		name:    spec.Name,
		image:   spec.Image,
		node:    node,
		link:    l,
		port:    port,
		host:    host,
		app:     spec.App,
		state:   StateCreated,
	}
	r.byName[spec.Name] = c
	return c, nil
}

// CreateStaged provisions a container inside a netsim construction stage:
// node, NIC and link identity come from the stage's reserved ranges, and
// nothing in the runtime's shared tracking structures is touched, so one
// goroutine per stage may create containers concurrently. sw must be owned
// by the stage's builder (an edge switch of the same group). Register the
// result — in canonical order, after netsim.Network.Merge — with Adopt.
func (r *Runtime) CreateStaged(st *netsim.Stage, spec Spec, sw *netsim.Switch, link netsim.LinkConfig) *Container {
	node := st.NewNodeInDomain(spec.Name, spec.Domain)
	nic := node.AddNIC()
	port := sw.NewPort()
	l := st.Connect(nic, port, link)
	host := netstack.NewHost(nic, spec.Host)
	return &Container{
		runtime: r,
		name:    spec.Name,
		image:   spec.Image,
		node:    node,
		link:    l,
		port:    port,
		host:    host,
		app:     spec.App,
		state:   StateCreated,
	}
}

// Adopt registers staged containers' names with the runtime, rejecting a
// name already taken. Call after netsim.Network.Merge.
func (r *Runtime) Adopt(cs ...*Container) error {
	for _, c := range cs {
		if _, dup := r.byName[c.name]; dup {
			return fmt.Errorf("container %q already exists", c.name)
		}
		r.byName[c.name] = c
	}
	return nil
}

// Grow pre-sizes the runtime's name index for a build of known size
// (negative or zero hints are ignored).
func (r *Runtime) Grow(n int) {
	if n <= 0 {
		return
	}
	bigger := make(map[string]*Container, len(r.byName)+n)
	for k, v := range r.byName {
		bigger[k] = v
	}
	r.byName = bigger
}

// Container is one isolated workload with its own network identity and
// resource accounting.
type Container struct {
	runtime *Runtime
	name    string
	image   string
	node    *netsim.Node
	link    *netsim.Link
	port    netsim.Port
	host    *netstack.Host
	app     App
	state   State

	cpu      time.Duration // accumulated attributed compute time
	started  sim.Time
	stopped  sim.Time
	restarts int

	crashes uint64
	sup     *Supervisor
}

// Name returns the container name.
func (c *Container) Name() string { return c.name }

// Host returns the container's network stack.
func (c *Container) Host() *netstack.Host { return c.host }

// Link returns the container's uplink; churn models cut and restore it.
func (c *Container) Link() *netsim.Link { return c.link }

// SwitchPort is the switch-side port the container's access link lands on
// (the argument topology primers pass to Switch.Learn).
func (c *Container) SwitchPort() netsim.Port { return c.port }

// State reports the lifecycle state.
func (c *Container) State() State { return c.state }

// Restarts reports how many times the container has been restarted.
func (c *Container) Restarts() int { return c.restarts }

// Crashes reports the total number of abnormal exits.
func (c *Container) Crashes() uint64 { return c.crashes }

// emit records a lifecycle trace event in the network's flight recorder
// (a no-op when none is attached). The timestamp is the container's own
// domain clock, which in a partitioned run is the only "now" its events
// may observe.
func (c *Container) emit(event string, value int64) {
	c.runtime.net.Recorder().Emit(c.node.Scheduler().Now(), telemetry.CatContainer, event, c.name, value)
}

// Scheduler is the event queue the container's workload runs on (its
// node's domain scheduler in a partitioned network).
func (c *Container) Scheduler() *sim.Scheduler { return c.node.Scheduler() }

// Start runs the hosted app. Starting a running container is a no-op.
func (c *Container) Start() {
	if c.state == StateRunning {
		return
	}
	if c.state == StateStopped {
		c.restarts++
	}
	c.state = StateRunning
	c.started = c.node.Scheduler().Now()
	c.emit("start", int64(c.restarts))
	// Plug in our own side only: side state is owned by the NIC's domain,
	// so a restart never reaches across a domain boundary. The far (switch)
	// side is cut only by fault events, which restore it themselves.
	c.host.NIC().SetLinkUp(true)
	if c.app != nil {
		c.app.Start(c)
	}
}

// Kill terminates the container abnormally — the crash/OOM analog, and the
// only way a container exits: it stops the hosted app and cuts the uplink
// (the container disappears from the network), and a supervisor with the
// always policy schedules a restart.
func (c *Container) Kill() {
	if c.state != StateRunning {
		return
	}
	c.state = StateStopped
	c.stopped = c.node.Scheduler().Now()
	c.emit("crash", int64(c.crashes+1))
	if c.app != nil {
		c.app.Stop()
	}
	// Unplug our own side only (domain-local; see Start). Frames already
	// heading for the dead container transmit and are then cut in flight.
	c.host.NIC().SetLinkUp(false)
	// With the app stopped its sockets are gone; hand any now-empty stack
	// tables back to the shared pools until the next start needs them.
	c.host.ReleaseIdle()
	c.crashes++
	if c.sup != nil {
		c.sup.noteExit()
	}
}

// --- resource accounting (the `docker stats` analog) ---

// AddCPU attributes d of compute time to the container.
func (c *Container) AddCPU(d time.Duration) {
	if d > 0 {
		c.cpu += d
	}
}

// CPUTime reports total attributed compute time.
func (c *Container) CPUTime() time.Duration { return c.cpu }

// String renders a `docker ps`-style line.
func (c *Container) String() string {
	return fmt.Sprintf("%s (%s, %s, ip=%v)", c.name, c.image, c.state, c.host.Addr())
}
