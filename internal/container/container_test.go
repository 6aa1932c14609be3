package container

import (
	"testing"
	"time"

	"ddoshield/internal/netsim"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

func testRuntime(t *testing.T) (*sim.Scheduler, *Runtime, *netsim.Switch) {
	t.Helper()
	s := sim.NewScheduler()
	net := netsim.New(s)
	return s, NewRuntime(net), net.NewSwitch("sw0")
}

func spec(name string, hostByte byte) Spec {
	return Spec{
		Name:  name,
		Image: "test:latest",
		Host: netstack.HostConfig{
			Addr:   packet.AddrFrom4(10, 0, 0, hostByte),
			Subnet: packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 0), Bits: 24},
			Seed:   int64(hostByte),
		},
	}
}

func TestCreateAndLookup(t *testing.T) {
	_, rt, sw := testRuntime(t)
	c, err := rt.Create(spec("dev1", 10), sw, netsim.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != StateCreated {
		t.Fatalf("initial state = %v", c.State())
	}
	if c.Host().Addr() != packet.AddrFrom4(10, 0, 0, 10) {
		t.Fatalf("Addr = %v", c.Host().Addr())
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	_, rt, sw := testRuntime(t)
	if _, err := rt.Create(spec("dup", 1), sw, netsim.LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Create(spec("dup", 2), sw, netsim.LinkConfig{}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestAppLifecycle(t *testing.T) {
	_, rt, sw := testRuntime(t)
	started, stopped := 0, 0
	app := AppFuncs{
		OnStart: func(c *Container) { started++ },
		OnStop:  func() { stopped++ },
	}
	sp := spec("app", 3)
	sp.App = app
	c, err := rt.Create(sp, sw, netsim.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Start() // idempotent
	if started != 1 || c.State() != StateRunning {
		t.Fatalf("started=%d state=%v", started, c.State())
	}
	c.Kill()
	c.Kill() // idempotent
	if stopped != 1 || c.State() != StateStopped || c.Crashes() != 1 {
		t.Fatalf("stopped=%d state=%v crashes=%d", stopped, c.State(), c.Crashes())
	}
	c.Start()
	if c.Restarts() != 1 {
		t.Fatalf("Restarts() = %d, want 1", c.Restarts())
	}
}

// TestStopCutsNetwork: a stopped (killed) container drops off the network
// until it starts again.
func TestStopCutsNetwork(t *testing.T) {
	s, rt, sw := testRuntime(t)
	a, err := rt.Create(spec("a", 1), sw, netsim.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Create(spec("b", 2), sw, netsim.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	got := 0
	if _, err := b.Host().ListenUDP(9, func(packet.Addr, uint16, []byte) { got++ }); err != nil {
		t.Fatal(err)
	}
	sock, err := a.Host().ListenUDP(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sock.SendTo(b.Host().Addr(), 9, []byte("1"))
	s.Drain()
	if got != 1 {
		t.Fatalf("pre-stop delivery = %d", got)
	}
	b.Kill()
	sock.SendTo(b.Host().Addr(), 9, []byte("2"))
	s.Drain()
	if got != 1 {
		t.Fatal("stopped container still received traffic")
	}
	b.Start()
	sock.SendTo(b.Host().Addr(), 9, []byte("3"))
	s.Drain()
	if got != 2 {
		t.Fatal("restarted container unreachable")
	}
}

func TestCPUAccounting(t *testing.T) {
	_, rt, sw := testRuntime(t)
	c, err := rt.Create(spec("cpu", 4), sw, netsim.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c.AddCPU(30 * time.Millisecond)
	c.AddCPU(20 * time.Millisecond)
	c.AddCPU(-5 * time.Millisecond) // negative ignored
	if got := c.CPUTime(); got != 50*time.Millisecond {
		t.Fatalf("CPUTime = %v", got)
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		StateCreated: "created", StateRunning: "running", StateStopped: "stopped",
	} {
		if st.String() != want {
			t.Fatalf("%v", st)
		}
	}
}
