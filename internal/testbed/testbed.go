// Package testbed is DDoShield-IoT itself: the orchestrator that assembles
// the Fig. 1 topology — the Attacker container, the Dev fleet, the TServer
// with its three benign-traffic servers (Apache/HTTP, Nginx-RTMP/video,
// custom FTP) and the IDS container — on one simulated switched network,
// runs the Mirai campaign phases, and exposes the capture, labeling and
// measurement hooks the experiments need.
package testbed

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"ddoshield/internal/apps/ftpapp"
	"ddoshield/internal/apps/httpapp"
	"ddoshield/internal/apps/rtmpapp"
	"ddoshield/internal/botnet"
	"ddoshield/internal/container"
	"ddoshield/internal/dataset"
	"ddoshield/internal/devices"
	"ddoshield/internal/faults"
	"ddoshield/internal/features"
	"ddoshield/internal/ids"
	"ddoshield/internal/netsim"
	"ddoshield/internal/netstack"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/telemetry/prof"
	"ddoshield/internal/telemetry/trace"
)

// Well-known testbed addresses inside the default 10.0.0.0/12 subnet,
// built from octet literals rather than parsed strings so no runtime path
// can hit a parse panic.
var (
	// DefaultSubnet is the simulated LAN (10.0.0.0/12). The /12 leaves room
	// for the extension device plane (10.4.0.0+) that fleets beyond the
	// classic 10.0.2.x plane spill into; every legacy address stays inside
	// it, so routing behaviour for small topologies is unchanged.
	DefaultSubnet = packet.Prefix{Addr: packet.AddrFrom4(10, 0, 0, 0), Bits: 12}
	// DefaultSpoofRange supplies forged flood sources (10.0.200.0/22); it
	// is inside the subnet but never assigned to a real host, so it
	// doubles as an exact ground-truth marker.
	DefaultSpoofRange = packet.Prefix{Addr: packet.AddrFrom4(10, 0, 200, 0), Bits: 22}

	addrTServer  = packet.AddrFrom4(10, 0, 1, 1)
	addrIDS      = packet.AddrFrom4(10, 0, 1, 2)
	addrC2       = packet.AddrFrom4(10, 0, 0, 2)
	addrAttacker = packet.AddrFrom4(10, 0, 0, 3)
)

// DefaultDevices is the fleet size of a Config that sets no NumDevices.
const DefaultDevices = 10

// MaxDevices bounds the fleet size a Config may request: the classic
// 10.0.2.x plane plus the 10.4.0.0+ extension plane comfortably hold it,
// and it is the scale the 100k-device campaigns target with headroom.
const MaxDevices = 200_000

// MaxDomains bounds the PDES domain count a Config may request: the engine
// keeps K×K cross-domain tables, which at this bound stay in the tens of MB.
const MaxDomains = 1024

// classicPlaneDevices is how many devices fit the original 10.0.2.x plane
// (10.0.2.10 .. 10.0.2.255). Only this plane lies inside the attacker's
// 10.0.2.0/24 scan range, so only these devices can ever be conscripted —
// exactly the pre-extension behaviour.
const classicPlaneDevices = 246

// deviceAddr returns the i-th device address: the classic 10.0.2.x plane
// for the first 246 devices (byte-for-byte the historical mapping), then
// the 10.4.0.0+ extension plane for fleet-scale topologies.
func deviceAddr(i int) packet.Addr {
	if i < classicPlaneDevices {
		return packet.AddrFrom4(10, 0, 2, byte(10+i))
	}
	n := i - classicPlaneDevices
	return packet.AddrFrom4(10, byte(4+n>>16), byte(n>>8), byte(n))
}

// scannableLimit reports how many leading devices the attacker's scanner
// can reach: Config.ScannableDevices when set, else the classic 246-device
// 10.0.2.x plane.
func (c Config) scannableLimit() int {
	if c.ScannableDevices > 0 {
		return c.ScannableDevices
	}
	return classicPlaneDevices
}

// deviceScannable reports whether device i is reachable by the attacker's
// scanner (inside its target ranges) and therefore a potential bot. The
// partitioner weighs scannable vulnerable devices as future flood sources.
func (c Config) deviceScannable(i int) bool { return i < c.scannableLimit() }

// maxMetricEntities bounds how many netsim entities (NICs, links,
// switches) publish per-entity metric series. Infrastructure and the
// first ~4000 devices register; beyond that only aggregate metrics grow
// with fleet size. Small topologies never reach the cap.
const maxMetricEntities = 8192

// templateKey identifies one shared device template: the slot in the
// Profiles cycle plus the benign target its instances aim at (per-group
// with EdgeServers, the central TServer otherwise).
type templateKey struct {
	profile int
	target  packet.Addr
}

// edgeServerAddr returns the g-th group's edge-server address (10.0.3.x).
func edgeServerAddr(g int) packet.Addr {
	return packet.AddrFrom4(10, 0, 3, byte(1+g))
}

// ChurnConfig models device reboots: exponential up-times and down-times.
// A rebooted device loses its infection (Mirai is memory-resident). Churn
// reboots are crash exits routed through each device's supervisor, which
// also brings back a device a fault plan crashed; a reboot timer armed
// before such a restart is retired and never kills the restarted device.
type ChurnConfig struct {
	// Enabled turns churn on.
	Enabled bool
	// MeanUp is the mean time a device stays up (default 2 min).
	MeanUp time.Duration
	// MeanDown is the mean reboot outage (default 5 s).
	MeanDown time.Duration
}

// Config assembles a testbed.
type Config struct {
	// Seed drives every stochastic component.
	Seed int64
	// NumDevices is the Dev fleet size (default DefaultDevices, max
	// MaxDevices).
	NumDevices int
	// Profiles cycles device classes (default devices.DefaultFleet).
	Profiles []devices.Profile
	// MeanThink is the base benign think time per device (default 5 s).
	MeanThink time.Duration
	// ScanInterval paces the attacker's telnet scanner (default 200 ms).
	ScanInterval time.Duration
	// Link is the access-link configuration (defaults: 100 Mb/s, 1 ms).
	// Its RNG must be nil: random loss draws from per-link streams keyed by
	// Seed.
	Link netsim.LinkConfig
	// Churn configures device reboots.
	Churn ChurnConfig
	// ReinfectCooldown is how long the loader leaves a freshly infected
	// device alone before re-probing (default 45 s, so churned devices
	// rejoin the botnet quickly at testbed timescales).
	ReinfectCooldown time.Duration
	// TraceSampleRate enables causal packet tracing: the fraction of flows
	// (selected by a deterministic hash of the 5-tuple, seeded by Seed)
	// whose packets carry per-hop spans. 0 disables tracing entirely;
	// rates >= 1 trace every flow.
	TraceSampleRate float64
	// TraceSpanCapacity bounds the tracer's finished-span ring (default
	// trace.DefaultSpanCapacity).
	TraceSpanCapacity int
	// DeviceGroups splits the Dev fleet across this many access switches
	// (edge00..edgeNN), each trunked to the core lan0 switch over
	// TrunkLink. 0 or 1 keeps the flat single-switch topology. Devices are
	// packed into groups by the deterministic load-aware partitioner (see
	// partition.go); topology is a function of the config alone — the
	// execution mode (Domains) never changes what is simulated, only how
	// it executes.
	DeviceGroups int
	// TrunkLink configures the edge-to-core trunk links (defaults: the
	// netsim link defaults, i.e. 100 Mb/s and 1 ms). With Domains > 1 the
	// trunk delay is the dominant term of the engine lookahead, so larger
	// values buy wider parallel windows. Its RNG must be nil, as Link's.
	TrunkLink netsim.LinkConfig
	// EdgeServers gives each device group a local HTTP server
	// (10.0.3.1+g) on its access switch, and points the group's devices
	// at it instead of the central TServer. This keeps benign request
	// traffic group-local — the topology shape that lets a partitioned
	// run scale — and implies HTTP-only device profiles (video/FTP
	// against an edge server are refused). Requires DeviceGroups >= 2.
	EdgeServers bool
	// Domains partitions execution into this many conservative-PDES
	// domains: domain 0 owns the core (lan0, TServer, IDS, C2, attacker)
	// and the load-aware partitioner packs device groups (or, in the flat
	// topology, devices) onto domains 1..Domains-1 by expected event rate
	// so no single hot domain serializes the epoch barrier. Values
	// <= 1 run the classic single-scheduler path. Results are
	// byte-identical either way; Domains > 1 only buys parallelism, on
	// PDESWorkers cores (by default as many as the process may use).
	// Churn, fault plans and random link loss all run partitioned: every
	// random draw comes from a per-entity stream (per device, per link
	// direction) and every fault mutates state only from its owning
	// domain's scheduler, so degraded campaigns replay exactly.
	Domains int
	// PDESWorkers is how many goroutines run the domains' epoch windows:
	// Run's caller and PDESWorkers−1 helpers, each claiming the next unrun
	// window of the epoch, so it is also how many windows run at once.
	// 0 picks min(Domains, GOMAXPROCS): a worker beyond the cores only
	// polls and parks. Ignored when Domains <= 1; never changes the results.
	PDESWorkers int
	// Profile has no effect: every testbed keeps its profile (see
	// Testbed.Profile and Testbed.Profiler).
	//
	// Deprecated: the profile is always kept; set nothing.
	Profile bool
	// PrimeARP tells the fabric what the builder already knows. It installs
	// static ARP entries for every pair that will exchange traffic (device
	// and its benign target, attacker/C2/TServer and the scannable plane)
	// instead of resolving on first use, pre-seeds the switch MAC tables
	// along the same paths, and hands the network the (address, MAC) of every
	// host as its ARP directory (netsim.Network.SetARPDirectory). On a shared
	// L2 segment an ARP request or unknown-unicast frame is copied to every
	// host, so un-primed resolution and first-contact traffic grow as
	// active-senders x total-hosts; priming removes the resolution the same
	// way large ns-3 topologies pre-populate their ARP caches, and the
	// directory makes the requests that remain — for hosts outside the primed
	// pairs, and for addresses nobody owns, such as a scanner's misses and a
	// flood's forged sources — cost one path or nothing instead of the fleet.
	// Static entries survive churn restarts (the host's ARP cache always
	// has). Off by default: small paper-faithful topologies resolve and
	// flood dynamically.
	PrimeARP bool
	// ScannableDevices widens (or narrows) the attacker's scannable plane:
	// the first ScannableDevices devices are reachable by the scanner and
	// therefore conscriptable. 0 keeps the classic behaviour — only the
	// 246-device 10.0.2.x plane, exactly the attacker's historical
	// 10.0.2.0/24 range. Values above classicPlaneDevices extend the
	// attacker's probe space into the 10.4.0.0+ extension plane (see
	// botnet.AttackerConfig.ExtraRanges), letting fleet-scale campaigns
	// recruit bots beyond the first 246 devices.
	ScannableDevices int

	// serialBuild fills the group stages one after another on the calling
	// goroutine instead of one goroutine per group. Test hook: the parallel
	// build is defined to produce a byte-identical testbed (same MACs, link
	// indices, metric registration order), and TestSerialBuildByteIdentity
	// pins it against this sequential reference.
	serialBuild bool
}

func (c Config) withDefaults() Config {
	if c.NumDevices <= 0 {
		c.NumDevices = DefaultDevices
	}
	if len(c.Profiles) == 0 {
		c.Profiles = devices.DefaultFleet
	}
	if c.MeanThink <= 0 {
		c.MeanThink = 5 * time.Second
	}
	if c.ScanInterval <= 0 {
		c.ScanInterval = 200 * time.Millisecond
	}
	if c.Churn.MeanUp <= 0 {
		c.Churn.MeanUp = 2 * time.Minute
	}
	if c.Churn.MeanDown <= 0 {
		c.Churn.MeanDown = 5 * time.Second
	}
	if c.ReinfectCooldown <= 0 {
		c.ReinfectCooldown = 45 * time.Second
	}
	if c.DeviceGroups == 0 {
		c.DeviceGroups = 1
	}
	if c.Domains < 1 {
		c.Domains = 1
	}
	return c
}

// validate rejects inconsistent configurations. Partitioned mode no longer
// gates features: churn, fault plans and lossy links all run under the
// PDES engine with per-entity RNG streams and domain-local fault routing.
func (c Config) validate() error {
	if c.NumDevices > MaxDevices {
		return fmt.Errorf("testbed: NumDevices %d exceeds MaxDevices %d", c.NumDevices, MaxDevices)
	}
	if c.DeviceGroups < 0 {
		return fmt.Errorf("testbed: DeviceGroups must be >= 0 (got %d)", c.DeviceGroups)
	}
	if c.DeviceGroups > c.NumDevices {
		return fmt.Errorf("testbed: DeviceGroups %d exceeds NumDevices %d", c.DeviceGroups, c.NumDevices)
	}
	if c.Domains > MaxDomains {
		return fmt.Errorf("testbed: Domains %d exceeds MaxDomains %d", c.Domains, MaxDomains)
	}
	if c.EdgeServers && c.DeviceGroups < 2 {
		return fmt.Errorf("testbed: EdgeServers requires DeviceGroups >= 2 (got %d)", c.DeviceGroups)
	}
	if c.EdgeServers && c.DeviceGroups > 254 {
		return fmt.Errorf("testbed: EdgeServers supports at most 254 groups (got %d)", c.DeviceGroups)
	}
	if c.ScannableDevices < 0 {
		return fmt.Errorf("testbed: ScannableDevices must be >= 0 (got %d)", c.ScannableDevices)
	}
	return nil
}

// DeviceHandle pairs a device with its container.
type DeviceHandle struct {
	Container *container.Container
	Device    *devices.Device
}

// Testbed is an assembled DDoShield-IoT instance.
type Testbed struct {
	cfg     Config
	sched   *sim.Scheduler
	engine  *sim.Engine // nil when Domains <= 1
	network *netsim.Network
	runtime *container.Runtime
	sw      *netsim.Switch
	edgeSws []*netsim.Switch

	tserver   *container.Container
	idsC      *container.Container
	c2C       *container.Container
	attackerC *container.Container
	devs      []DeviceHandle

	httpSrv  *httpapp.Server
	rtmpSrv  *rtmpapp.Server
	ftpSrv   *ftpapp.Server
	c2       *botnet.C2
	attacker *botnet.Attacker

	edgeSrvs []*httpapp.Server
	edgeCs   []*container.Container

	injector *faults.Injector
	devSups  []*container.Supervisor
	// churn holds one private RNG stream and reboot generation per device,
	// keyed by (seed, device index). The map is fully populated at New and
	// only read afterwards; each entry is touched exclusively from its
	// device's domain, which is what lets churn run under the PDES engine.
	churn map[*container.Container]*churnState

	reg    *telemetry.Registry
	rec    *telemetry.Recorder
	tracer *trace.Tracer

	idsUnits []*ids.Unit
	// fronts are the capture front ends of idsUnits, one tap each, in
	// creation order; AttachIDS subscribes a unit to the first that takes it.
	fronts []*ids.Front
	// mitigations are the closed defense loops wired by AttachMitigation;
	// each contributes mitigation lines to Summary and a scoreboard panel.
	mitigations []mitigationHandle

	// trunks are the edge-to-core links, in group order (nil when flat).
	trunks []*netsim.Link

	// prof times the campaign phases and reads the engine's wall clock.
	prof *prof.Profiler

	started bool
}

// churnState is one device's churn bookkeeping: a private RNG for its
// up/down interval draws and a generation counter that cancels stale
// reboot callbacks. Mutated only on the device's own scheduler.
type churnState struct {
	rng *sim.RNG
	gen int
}

// churnStreamKey salts the per-device (seed, device index) churn streams.
const churnStreamKey = 0x6465762d636875 // "dev-chu"

// New assembles the full topology. Nothing runs until Start.
func New(cfg Config) (*Testbed, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	tb := &Testbed{
		cfg:   cfg,
		churn: make(map[*container.Container]*churnState),
	}
	if cfg.Domains > 1 {
		tb.engine = sim.NewEngine(cfg.Domains, 0)
	}
	tb.prof = prof.New(tb.engine, cfg.NumDevices)
	tb.prof.StartPhase(prof.PhaseBuild)
	// Fleet-scale builds allocate tens of millions of small objects, none
	// of which are garbage until the fleet is live — construction is one
	// monotonic allocation burst. At the default GC target the collector
	// re-walks the growing heap dozens of times before the topology
	// exists, so the collector is switched off for the burst and restored
	// before New returns. The peak is bounded by the fleet's live
	// footprint (~3 KB/device plus transients), far below any host this
	// scale runs on, and steady state re-enables normal collection.
	if cfg.NumDevices >= 20_000 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	// Deterministic load-aware placement: device -> group, group -> domain
	// (see partition.go). Computed up front because edge switches must be
	// created in their groups' domains before any device exists.
	pl := cfg.layout()
	if tb.engine != nil {
		tb.sched = tb.engine.Domain(0).Scheduler()
		tb.network = netsim.NewPartitioned(tb.engine)
	} else {
		tb.sched = sim.NewScheduler()
		tb.network = netsim.New(tb.sched)
	}
	// Cap per-entity metric cardinality: the first maxMetricEntities NICs,
	// links and switches (infrastructure first — devices are created last)
	// publish series; a 100k-device fleet would otherwise put millions of
	// entries in every Prometheus snapshot. Small topologies never reach
	// the cap, so their snapshots are unchanged.
	tb.network.SetMetricEntityLimit(maxMetricEntities)
	// Root the network's per-link loss streams: every random loss draw on an
	// access or trunk link comes from a stream keyed by (Seed, link).
	tb.network.SetSeed(cfg.Seed)
	// Telemetry hub first, so every NIC, link and switch created below
	// registers its counters at construction time.
	tb.reg = telemetry.NewRegistry()
	tb.rec = telemetry.NewRecorder(telemetry.DefaultRecorderCapacity)
	tb.network.SetTelemetry(tb.reg, tb.rec)
	tb.reg.RegisterCounter(tb.rec.Dropped(), "telemetry_recorder_dropped_total")
	if cfg.TraceSampleRate > 0 {
		tb.tracer = trace.New(trace.Config{
			Seed:         cfg.Seed,
			SampleRate:   cfg.TraceSampleRate,
			SpanCapacity: cfg.TraceSpanCapacity,
			Classify:     classifyFlow,
			Registry:     tb.reg,
		})
		tb.network.SetTracer(tb.tracer)
	}
	tb.runtime = container.NewRuntime(tb.network)
	// Pre-size the network's entity collections for the whole topology so
	// fleet-scale builds never re-grow them mid-construction.
	{
		srvs, groups := 0, 0
		if cfg.DeviceGroups > 1 {
			groups = cfg.DeviceGroups
			if cfg.EdgeServers {
				srvs = cfg.DeviceGroups
			}
		}
		tb.network.Grow(4+srvs+cfg.NumDevices, 4+groups+srvs+cfg.NumDevices, 1+groups)
	}
	tb.sw = tb.network.NewSwitch("lan0")

	hostCfg := func(addr packet.Addr) netstack.HostConfig {
		return netstack.HostConfig{
			Addr:   addr,
			Subnet: DefaultSubnet,
			Seed:   cfg.Seed ^ int64(addr.Uint32()),
		}
	}

	// TServer: the three benign servers in one container.
	tb.httpSrv = httpapp.NewServer(httpapp.ServerConfig{Seed: cfg.Seed + 101})
	tb.rtmpSrv = rtmpapp.NewServer(rtmpapp.ServerConfig{Seed: cfg.Seed + 102})
	tb.ftpSrv = ftpapp.NewServer(ftpapp.ServerConfig{Seed: cfg.Seed + 103})
	var err error
	tb.tserver, err = tb.runtime.Create(container.Spec{
		Name: "tserver", Image: "tserver:apache-nginx-ftp",
		Host: hostCfg(addrTServer),
	}, tb.sw, cfg.Link)
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}

	// IDS container: passive; detection units meter into it.
	tb.idsC, err = tb.runtime.Create(container.Spec{
		Name: "ids", Image: "ids:realtime",
		Host: hostCfg(addrIDS),
	}, tb.sw, cfg.Link)
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}

	// C2 container.
	tb.c2 = botnet.NewC2()
	tb.c2C, err = tb.runtime.Create(container.Spec{
		Name: "c2", Image: "mirai:cnc",
		Host: hostCfg(addrC2),
	}, tb.sw, cfg.Link)
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}

	// Attacker container: scanner + loader over the device address plane.
	// With ScannableDevices past the classic 246-device 10.0.2.x plane,
	// the scanner also sweeps the contiguous 10.4.0.0+ extension block
	// those devices live in; the default remains exactly the historical
	// 10.0.2.0/24 range.
	var extraRanges []botnet.ScanRange
	if lim := cfg.scannableLimit(); lim > classicPlaneDevices && cfg.NumDevices > classicPlaneDevices {
		count := min(lim, cfg.NumDevices) - classicPlaneDevices
		extraRanges = []botnet.ScanRange{{Base: deviceAddr(classicPlaneDevices), Count: uint32(count)}}
	}
	tb.attacker = botnet.NewAttacker(botnet.AttackerConfig{
		TargetRange:       packet.Prefix{Addr: packet.AddrFrom4(10, 0, 2, 0), Bits: 24},
		ExtraRanges:       extraRanges,
		C2Addr:            addrC2,
		MeanProbeInterval: cfg.ScanInterval,
		ReinfectCooldown:  cfg.ReinfectCooldown,
		Seed:              cfg.Seed + 301,
	})
	tb.attackerC, err = tb.runtime.Create(container.Spec{
		Name: "attacker", Image: "mirai:loader",
		Host: hostCfg(addrAttacker),
	}, tb.sw, cfg.Link)
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}

	// Access-layer infrastructure: every group's edge switch plus its
	// trunk into lan0, placed in the group's PDES domain. Built serially:
	// switches and trunks are the shared wiring the staged group builds
	// below attach to. The flat topology is the one-group plan whose access
	// switch is lan0 itself: no edge switch, no trunk.
	var trunkCorePorts []netsim.Port
	if cfg.DeviceGroups > 1 {
		for g := 0; g < cfg.DeviceGroups; g++ {
			esw := tb.network.NewSwitchInDomain(fmt.Sprintf("edge%02d", g), pl.domainOfGroup(g))
			corePort, edgePort := tb.sw.NewPort(), esw.NewPort()
			tb.trunks = append(tb.trunks, tb.network.Connect(corePort, edgePort, cfg.TrunkLink))
			trunkCorePorts = append(trunkCorePorts, corePort)
			tb.edgeSws = append(tb.edgeSws, esw)
			if cfg.PrimeARP {
				// Core-side hosts reached from this group go via the trunk.
				esw.Learn(tb.tserver.Host().MAC(), edgePort)
				esw.Learn(tb.attackerC.Host().MAC(), edgePort)
				esw.Learn(tb.c2C.Host().MAC(), edgePort)
			}
		}
	}
	if cfg.PrimeARP {
		for _, c := range []*container.Container{tb.tserver, tb.idsC, tb.c2C, tb.attackerC} {
			tb.sw.Learn(c.Host().MAC(), c.SwitchPort())
		}
	}

	// Device fleet (and per-group edge servers): built group-major, one
	// construction stage per group.
	if err := tb.buildAccessLayer(pl, trunkCorePorts, hostCfg); err != nil {
		return nil, err
	}

	// Fault injection: the device fleet is what a plan can hit. Devices
	// register in creation order so glob resolution (and thus injection
	// order) is deterministic.
	tb.injector = faults.NewInjector(tb.sched, cfg.Seed)
	for i := range tb.devs {
		tb.injector.Register(tb.devs[i].Container)
	}
	tb.injector.SetTelemetry(tb.reg, tb.rec)
	tb.registerCampaignMetrics()
	if tb.engine != nil {
		// Conservative lookahead: the smallest propagation delay of any
		// link that crosses a domain boundary. A degenerate partitioning
		// (every object in domain 0) has no such link; any positive
		// lookahead is then safe.
		la, ok := tb.network.MinCrossDomainDelay()
		if !ok {
			la = sim.Millisecond
		}
		tb.engine.SetLookahead(la)
	}
	tb.prof.EndPhase(prof.PhaseBuild)
	return tb, nil
}

// buildAccessLayer constructs the device fleet and per-group edge servers —
// the bulk of the topology at fleet scale — group-major: group g's devices
// attach to its access switch (edge switch g, or lan0 for the flat
// topology's single group). Every group builds through a netsim construction
// stage: identity ranges (MACs, link indices) are reserved per group in
// canonical order before any entity exists, the stages are filled (one
// goroutine per group when there is more than one), and they merge back
// serially in the same canonical order — so the parallel build is
// byte-identical to the sequential one. Mutations of shared state (lan0 MAC
// priming, core-plane hosts' static ARP, churn streams) are deferred to a
// final serial pass in global device order.
func (tb *Testbed) buildAccessLayer(pl placement, trunkCorePorts []netsim.Port, hostCfg func(packet.Addr) netstack.HostConfig) error {
	cfg := tb.cfg
	tb.devs = make([]DeviceHandle, cfg.NumDevices)

	// Canonical group-major order: group g's slice of the fleet is its
	// edge server (when configured) followed by its devices in ascending
	// global index. Stages are created serially in exactly that order, so
	// every MAC and link index is fixed before any goroutine runs.
	byGroup := make([][]int, cfg.DeviceGroups)
	for i, g := range pl.deviceGroup {
		byGroup[g] = append(byGroup[g], i)
	}
	if cfg.EdgeServers {
		tb.edgeSrvs = make([]*httpapp.Server, cfg.DeviceGroups)
		tb.edgeCs = make([]*container.Container, cfg.DeviceGroups)
	}
	grouped := len(tb.edgeSws) > 0
	stages := make([]*netsim.Stage, cfg.DeviceGroups)
	for g := range stages {
		n := len(byGroup[g])
		if cfg.EdgeServers {
			n++
		}
		stages[g] = tb.network.NewStage(n, n)
	}
	tb.runtime.Grow(len(tb.devs) + len(tb.edgeCs))
	stageCs := make([][]*container.Container, cfg.DeviceGroups)

	buildGroup := func(g int) {
		st := stages[g]
		asw := tb.sw
		if grouped {
			asw = tb.edgeSws[g]
		}
		dom := pl.domainOfGroup(g)
		cs := make([]*container.Container, 0, len(byGroup[g])+1)
		target := addrTServer
		if cfg.EdgeServers {
			target = edgeServerAddr(g)
			srv := httpapp.NewServer(httpapp.ServerConfig{Seed: cfg.Seed + 2000 + int64(g)})
			srvC := tb.runtime.CreateStaged(st, container.Spec{
				Name: fmt.Sprintf("edge%02d-srv", g), Image: "edge:http",
				Host: hostCfg(edgeServerAddr(g)), Domain: dom,
			}, asw, cfg.Link)
			tb.edgeSrvs[g], tb.edgeCs[g] = srv, srvC
			cs = append(cs, srvC)
			if cfg.PrimeARP {
				asw.Learn(srvC.Host().MAC(), srvC.SwitchPort())
			}
		}
		// Class state is shared: one flyweight template per profile slot
		// serves every instance in the group.
		templates := make(map[templateKey]*devices.Template)
		for _, i := range byGroup[g] {
			profile := cfg.Profiles[i%len(cfg.Profiles)]
			name := fmt.Sprintf("dev%02d-%s", i, profile.Kind)
			tk := templateKey{profile: i % len(cfg.Profiles), target: target}
			tmpl := templates[tk]
			if tmpl == nil {
				tmpl = devices.NewTemplate(devices.TemplateConfig{
					Profile:    profile,
					TServer:    target,
					SpoofRange: DefaultSpoofRange,
					MeanThink:  cfg.MeanThink,
				})
				templates[tk] = tmpl
			}
			dev := tmpl.Instantiate(name, cfg.Seed+1000+int64(i)*13)
			devC := tb.runtime.CreateStaged(st, container.Spec{
				Name: name, Image: "iot:" + profile.Kind,
				Host: hostCfg(deviceAddr(i)), App: dev, Domain: pl.deviceDomain[i],
			}, asw, cfg.Link)
			tb.devs[i] = DeviceHandle{Container: devC, Device: dev}
			cs = append(cs, devC)
			if cfg.PrimeARP {
				// Group-local priming only: the access switch's table and
				// the device's own ARP entries. The device's entries in
				// core-plane hosts and on lan0 behind a trunk mutate shared
				// state and are installed by the serial pass after Merge.
				devH := devC.Host()
				asw.Learn(devH.MAC(), devC.SwitchPort())
				srvH := tb.tserver.Host()
				if cfg.EdgeServers {
					srvH = tb.edgeCs[g].Host()
				}
				devH.AddStaticARP(srvH.Addr(), srvH.MAC())
				if cfg.EdgeServers {
					srvH.AddStaticARP(devH.Addr(), devH.MAC())
				}
				if cfg.deviceScannable(i) {
					atkH, c2H := tb.attackerC.Host(), tb.c2C.Host()
					devH.AddStaticARP(atkH.Addr(), atkH.MAC())
					devH.AddStaticARP(c2H.Addr(), c2H.MAC())
					if cfg.EdgeServers {
						tsH := tb.tserver.Host()
						devH.AddStaticARP(tsH.Addr(), tsH.MAC())
					}
				}
			}
		}
		stageCs[g] = cs
	}

	if len(stages) > 1 && !cfg.serialBuild {
		var wg sync.WaitGroup
		for g := range stages {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				buildGroup(g)
			}(g)
		}
		wg.Wait()
	} else {
		for g := range stages {
			buildGroup(g)
		}
	}
	tb.network.Merge(stages...)
	for g := range stageCs {
		if err := tb.runtime.Adopt(stageCs[g]...); err != nil {
			return fmt.Errorf("testbed: %w", err)
		}
	}

	// Serial epilogue in canonical order: the per-device shared-state
	// priming the concurrent stages had to defer — lan0 MAC learning,
	// core-plane hosts' static ARP entries — and the churn streams.
	for i := range tb.devs {
		devC := tb.devs[i].Container
		if cfg.PrimeARP {
			devH := devC.Host()
			if !cfg.EdgeServers {
				tb.tserver.Host().AddStaticARP(devH.Addr(), devH.MAC())
			}
			if cfg.deviceScannable(i) {
				// The loader/C2/TServer reach this device through lan0,
				// which learns the trunk toward its group (a device on
				// lan0 itself was learned with its own port above).
				if grouped {
					tb.sw.Learn(devH.MAC(), trunkCorePorts[pl.deviceGroup[i]])
				}
				tb.attackerC.Host().AddStaticARP(devH.Addr(), devH.MAC())
				tb.c2C.Host().AddStaticARP(devH.Addr(), devH.MAC())
				if cfg.EdgeServers {
					tb.tserver.Host().AddStaticARP(devH.Addr(), devH.MAC())
				}
			}
		}
		// Per-device churn stream, fixed now so the map is read-only once
		// the simulation runs (entries mutate only in the owning domain).
		// Skipped entirely when churn is off — at fleet scale the unused
		// RNG states would dominate per-device cost.
		if cfg.Churn.Enabled {
			tb.churn[devC] = &churnState{rng: sim.KeyedStream(cfg.Seed, churnStreamKey, uint64(i))}
		}
	}
	if cfg.PrimeARP {
		// A primed testbed knows every host there will ever be, so its
		// switches need not ask all of them who owns an address.
		cs := tb.allContainers()
		owners := make(map[packet.Addr]packet.MAC, len(cs))
		for _, c := range cs {
			owners[c.Host().Addr()] = c.Host().MAC()
		}
		tb.network.SetARPDirectory(owners)
	}
	return nil
}

// registerCampaignMetrics exposes botnet campaign and fleet-health state as
// export-time metrics: the infection curve, C2 population, attacker
// progress and container crash/restart totals.
func (tb *Testbed) registerCampaignMetrics() {
	reg := tb.reg
	reg.RegisterGaugeFunc(func() float64 { return float64(tb.InfectedCount()) },
		"testbed_infected_devices")
	reg.RegisterGaugeFunc(func() float64 { return float64(tb.c2.Bots()) },
		"botnet_c2_bots")
	reg.RegisterCounterFunc(func() uint64 { r, _ := tb.c2.Stats(); return r },
		"botnet_c2_registered_total")
	reg.RegisterCounterFunc(func() uint64 { _, s := tb.c2.Stats(); return s },
		"botnet_c2_commands_total")
	reg.RegisterCounterFunc(func() uint64 { p, _, _, _ := tb.attacker.Stats(); return p },
		"botnet_attacker_probes_total")
	reg.RegisterCounterFunc(func() uint64 { _, c, _, _ := tb.attacker.Stats(); return c },
		"botnet_attacker_connects_total")
	reg.RegisterCounterFunc(func() uint64 { _, _, c, _ := tb.attacker.Stats(); return c },
		"botnet_attacker_cracked_total")
	reg.RegisterCounterFunc(func() uint64 { _, _, _, i := tb.attacker.Stats(); return i },
		"botnet_attacker_infections_total")
	reg.RegisterCounterFunc(func() uint64 {
		var n uint64
		for _, c := range tb.allContainers() {
			n += c.Crashes()
		}
		return n
	}, "testbed_container_crashes_total")
	reg.RegisterCounterFunc(func() uint64 {
		var n uint64
		for _, c := range tb.allContainers() {
			n += uint64(c.Restarts())
		}
		return n
	}, "testbed_container_restarts_total")
}

// Registry exposes the testbed's metrics registry.
func (tb *Testbed) Registry() *telemetry.Registry { return tb.reg }

// Recorder exposes the flight recorder.
func (tb *Testbed) Recorder() *telemetry.Recorder { return tb.rec }

// Tracer exposes the causal packet tracer (nil unless Config.TraceSampleRate
// is set; the trace API is nil-receiver safe, so callers may use the result
// directly).
func (tb *Testbed) Tracer() *trace.Tracer { return tb.tracer }

// allContainers lists every container in creation order.
func (tb *Testbed) allContainers() []*container.Container {
	out := []*container.Container{tb.tserver, tb.idsC, tb.c2C, tb.attackerC}
	out = append(out, tb.edgeCs...)
	for i := range tb.devs {
		out = append(out, tb.devs[i].Container)
	}
	return out
}

// Start brings every container up (TServer first, then C2, attacker and
// devices), attaches a supervisor to each device and schedules churn reboots
// when enabled. A fault plan is armed with Injector().Schedule, whose
// offsets count from the instant of the call.
func (tb *Testbed) Start() {
	if tb.started {
		return
	}
	tb.started = true
	tb.prof.StartPhase(prof.PhaseStart)
	defer tb.prof.EndPhase(prof.PhaseStart)
	// The infrastructure containers are never stopped: each starts its
	// servers once, right after it starts.
	tb.tserver.Start()
	if h := tb.tserver.Host(); tb.httpSrv.Attach(h) == nil && tb.rtmpSrv.Attach(h) == nil {
		_ = tb.ftpSrv.Attach(h)
	}
	tb.idsC.Start()
	tb.c2C.Start()
	_ = tb.c2.Attach(tb.c2C.Host())
	tb.attackerC.Start()
	tb.attacker.Attach(tb.attackerC.Host())
	for g, c := range tb.edgeCs {
		c.Start()
		_ = tb.edgeSrvs[g].Attach(c.Host())
	}
	for i := range tb.devs {
		c := tb.devs[i].Container
		c.Start()
		tb.devSups = append(tb.devSups, tb.runtime.Supervise(c, tb.deviceSupervision(c)))
		if tb.cfg.Churn.Enabled {
			tb.scheduleChurn(c)
		}
	}
}

// deviceSupervision builds the supervisor config for one device container.
// Crashed devices restart with the default backoff; with churn enabled the
// restart delay is the device's own churn stream's exponential outage draw
// and every supervised restart re-arms the next churn cycle. Both draws come
// from the same per-device RNG, so a device's up/down sequence depends only
// on its own reboot history — never on how other devices' events interleave,
// in either execution mode.
func (tb *Testbed) deviceSupervision(c *container.Container) container.SupervisorConfig {
	if !tb.cfg.Churn.Enabled {
		return container.SupervisorConfig{Policy: container.RestartAlways}
	}
	st := tb.churn[c]
	return container.SupervisorConfig{
		Policy: container.RestartAlways,
		Delay: func(int) time.Duration {
			return time.Duration(st.rng.Exp(float64(tb.cfg.Churn.MeanDown)))
		},
		OnRestart: tb.scheduleChurn,
	}
}

// scheduleChurn arms the next reboot for one device container, on the
// device's own scheduler (the supervisor, the kill and the restart all
// stay inside the device's domain). A reboot is a crash exit (Kill); the
// device's supervisor brings it back after the churn outage draw and
// re-arms the next cycle via OnRestart. A generation counter retires the
// pending timer when the supervisor restarts the device for another reason
// first (a fault-plan crash), and the running-state guard keeps a stale
// timer from killing a device that is already down.
func (tb *Testbed) scheduleChurn(c *container.Container) {
	st := tb.churn[c]
	st.gen++
	gen := st.gen
	up := time.Duration(st.rng.Exp(float64(tb.cfg.Churn.MeanUp)))
	c.Scheduler().After(up, func() {
		if st.gen != gen || c.State() != container.StateRunning {
			return
		}
		c.Kill()
	})
}

// Run advances the simulation by d: on the single scheduler when serial,
// or through the PDES engine's epoch loop (with Workers goroutines) when
// Domains > 1. Both paths yield byte-identical state.
func (tb *Testbed) Run(d time.Duration) error {
	tb.prof.StartPhase(prof.PhaseRun)
	defer tb.prof.EndPhase(prof.PhaseRun)
	var err error
	if tb.engine != nil {
		err = tb.engine.RunFor(sim.FromDuration(d), tb.Workers())
	} else {
		err = tb.sched.RunFor(d)
	}
	// A window a front closed late in the run may still be with its
	// classifiers: fold it, so that whoever reads the testbed between Runs
	// (a summary, a registry snapshot, a heap measurement) finds every
	// closed window scored.
	for _, f := range tb.fronts {
		f.Join()
	}
	return err
}

// Observe calls fn once per period of simulated time, first one period from
// now, at a point where no event is running in any domain, so fn may read
// any of the testbed's state (the registry, the recorder, a profile). fn
// receives the instant its call stands for. Serially it is a ticker on the
// scheduler. Partitioned, the engine calls it between epochs once every
// event up to that instant has fired (sim.Engine.Observe: events less than
// one lookahead later may have fired too), and it schedules no event.
func (tb *Testbed) Observe(period time.Duration, fn func(now sim.Time)) {
	if tb.engine != nil {
		tb.engine.Observe(sim.FromDuration(period), fn)
		return
	}
	tb.sched.Every(period, func() { fn(tb.sched.Now()) })
}

// Workers reports the effective parallel worker count: Config.PDESWorkers
// when set, else one per domain up to the cores the process may use
// (GOMAXPROCS); always 1 in serial mode.
func (tb *Testbed) Workers() int {
	if tb.engine == nil {
		return 1
	}
	if tb.cfg.PDESWorkers > 0 {
		return tb.cfg.PDESWorkers
	}
	return min(tb.cfg.Domains, runtime.GOMAXPROCS(0))
}

// Engine exposes the PDES engine (nil when Domains <= 1).
func (tb *Testbed) Engine() *sim.Engine { return tb.engine }

// Scheduler exposes the simulation scheduler (domain 0's when partitioned).
func (tb *Testbed) Scheduler() *sim.Scheduler { return tb.sched }

// Network exposes the simulated network.
func (tb *Testbed) Network() *netsim.Network { return tb.network }

// Switch exposes the LAN switch (for span-port taps).
func (tb *Testbed) Switch() *netsim.Switch { return tb.sw }

// TServer exposes the target-server container.
func (tb *Testbed) TServer() *container.Container { return tb.tserver }

// TServerAddr reports the TServer address.
func (tb *Testbed) TServerAddr() packet.Addr { return addrTServer }

// IDSContainer exposes the IDS container (detection units meter into it).
func (tb *Testbed) IDSContainer() *container.Container { return tb.idsC }

// C2 exposes the command-and-control server.
func (tb *Testbed) C2() *botnet.C2 { return tb.c2 }

// Attacker exposes the scan-and-infect component.
func (tb *Testbed) Attacker() *botnet.Attacker { return tb.attacker }

// Devices lists the fleet.
func (tb *Testbed) Devices() []DeviceHandle {
	out := make([]DeviceHandle, len(tb.devs))
	copy(out, tb.devs)
	return out
}

// InfectedCount reports devices currently carrying a bot.
func (tb *Testbed) InfectedCount() int {
	n := 0
	for i := range tb.devs {
		if tb.devs[i].Device.Infected() {
			n++
		}
	}
	return n
}

// Injector exposes the fault injector, e.g. to register extra targets or
// schedule additional plans mid-run.
func (tb *Testbed) Injector() *faults.Injector { return tb.injector }

// FaultCounters reports per-kind fault injection counts, sorted by kind.
func (tb *Testbed) FaultCounters() []faults.Counter { return tb.injector.Counters() }

// DeviceSupervisors lists the per-device supervisors (empty before Start).
func (tb *Testbed) DeviceSupervisors() []*container.Supervisor {
	out := make([]*container.Supervisor, len(tb.devSups))
	copy(out, tb.devSups)
	return out
}

// Summary renders a deterministic end-of-run report: simulated clock,
// switch and link counters, campaign state, supervision activity and fault
// counters. It contains no wall-clock or host-dependent values, so two
// same-seed runs with the same fault plan produce byte-identical output —
// the property the determinism regression test pins down.
func (tb *Testbed) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "clock        %s\n", tb.sched.Now().Duration())
	fwd, fld := tb.sw.Stats()
	fmt.Fprintf(&b, "switch       forwarded=%d flooded=%d\n", fwd, fld)
	if tb.cfg.PrimeARP {
		suppressed := tb.sw.ARPSuppressed()
		for _, esw := range tb.edgeSws {
			suppressed += esw.ARPSuppressed()
		}
		fmt.Fprintf(&b, "arp          suppressed=%d\n", suppressed)
	}
	var ls netsim.LinkStats
	for _, c := range tb.allContainers() {
		ls.Add(c.Link().Counters())
	}
	fmt.Fprintf(&b, "links        tx=%d bytes=%d queue-drops=%d loss=%d corrupt=%d dup=%d reorder=%d inflight-drops=%d\n",
		ls.TxFrames, ls.TxBytes, ls.QueueDrops, ls.LossFrames,
		ls.CorruptFrames, ls.DupFrames, ls.ReorderFrames, ls.InFlightDrops)
	probes, connects, cracked, infections := tb.attacker.Stats()
	fmt.Fprintf(&b, "attacker     probes=%d connects=%d cracked=%d infections=%d\n",
		probes, connects, cracked, infections)
	reg, cmds := tb.c2.Stats()
	fmt.Fprintf(&b, "c2           registered=%d commands=%d bots=%d\n", reg, cmds, tb.c2.Bots())
	fmt.Fprintf(&b, "devices      total=%d infected=%d\n", len(tb.devs), tb.InfectedCount())
	restarts := 0
	var crashes uint64
	for _, s := range tb.devSups {
		restarts += s.Restarts()
	}
	for _, c := range tb.allContainers() {
		crashes += c.Crashes()
	}
	fmt.Fprintf(&b, "supervision  restarts=%d crashes=%d\n", restarts, crashes)
	if s := tb.injector.String(); s != "" {
		fmt.Fprintf(&b, "faults       %s\n", s)
	}
	if tb.tracer != nil {
		fmt.Fprintf(&b, "trace        finished=%d active=%d evicted=%d\n",
			len(tb.tracer.Spans()), tb.tracer.Active(), tb.tracer.Evicted())
	}
	for _, u := range tb.idsUnits {
		if d, ok := tb.DetectionLatency(u); ok {
			fmt.Fprintf(&b, "detection    unit=%s latency=%s\n", u.Name(), d)
		} else {
			fmt.Fprintf(&b, "detection    unit=%s latency=n/a\n", u.Name())
		}
	}
	for _, m := range tb.mitigations {
		ev, dr := m.fw.Stats()
		fmt.Fprintf(&b, "mitigation   unit=%s evaluated=%d dropped=%d rate-limited=%d collateral=%d attack-drops=%d attack-passed=%d\n",
			m.unit.Name(), ev, dr, m.fw.RateLimited(), m.fw.CollateralDrops(),
			m.fw.AttackDrops(), m.fw.AttackPassed())
		ha, hp, hf := m.fw.RuleHits()
		cs := m.fw.CacheStats()
		fmt.Fprintf(&b, "verdicts     unit=%s rule-hits addr=%d prefix=%d flow=%d cache size=%d inserts=%d evictions=%d expired=%d hits=%d misses=%d\n",
			m.unit.Name(), ha, hp, hf, cs.Size, cs.Inserts, cs.Evictions, cs.Expired, cs.Hits, cs.Misses)
		if d, ok := tb.TimeToMitigate(m.fw); ok {
			fmt.Fprintf(&b, "mitigate     unit=%s time-to-mitigate=%s\n", m.unit.Name(), d)
		} else {
			fmt.Fprintf(&b, "mitigate     unit=%s time-to-mitigate=n/a\n", m.unit.Name())
		}
	}
	return b.String()
}

// HTTPServer, VideoServer, FTPServer expose the TServer's benign services.
func (tb *Testbed) HTTPServer() *httpapp.Server  { return tb.httpSrv }
func (tb *Testbed) VideoServer() *rtmpapp.Server { return tb.rtmpSrv }
func (tb *Testbed) FTPServer() *ftpapp.Server    { return tb.ftpSrv }

// AddTap installs a capture tap at the observation point: the TServer
// uplink, where benign and attack traffic converge, as the paper's IDS
// observes. (Switch().AddTap is the span-port alternative.)
func (tb *Testbed) AddTap(tap netsim.Tap) { tb.tserver.Link().AddTap(tap) }

// AttachIDS wires a detection unit into the testbed's observation point and
// registers ids_detection_latency_seconds{unit=...}: the gap between the
// first attack packet's origin and the unit's first correct alert (-1 until
// both anchors exist). Units share one capture front end, and with it one
// tap, one decode per frame and one snapshot per window (ids.Front); a unit
// whose window size differs, or that arrives after the front has seen a
// frame, starts a front and a tap of its own. The unit also gains a
// detection line in Summary, and Run folds its front's window in flight
// before it returns (ids.Front.Join).
func (tb *Testbed) AttachIDS(u *ids.Unit) {
	tb.idsUnits = append(tb.idsUnits, u)
	// The first front that takes u subscribes it; if none does, u's own
	// front joins the list with a tap of its own.
	if !slices.ContainsFunc(tb.fronts, func(f *ids.Front) bool { return f.Subscribe(u) }) {
		tb.fronts = append(tb.fronts, u.Front())
		tb.AddTap(u.Tap())
	}
	// A registry snapshot may not fold: it reads the windows folded so far.
	tb.reg.RegisterGaugeFunc(func() float64 {
		d, ok := tb.detectionLatency(u.FirstCorrectAlertFolded())
		if !ok {
			return -1
		}
		return d.Seconds()
	}, "ids_detection_latency_seconds", telemetry.L("unit", u.Name()))
}

// FirstAttackAt reports when the first attack packet left its origin: the
// tracer's first KindAttack origin span when tracing is on, else the first
// C2 attack interval's start. The second return is false before any attack.
func (tb *Testbed) FirstAttackAt() (sim.Time, bool) {
	if t, ok := tb.tracer.FirstAttackOrigin(); ok {
		return t, true
	}
	iv := tb.c2.Intervals()
	if len(iv) == 0 {
		return 0, false
	}
	return iv[0].Start, true
}

// DetectionLatency reports the per-scenario detection latency for one
// attached unit: first attack packet origin → the unit's first alert on a
// window that truly contained attack traffic. False until both exist.
func (tb *Testbed) DetectionLatency(u *ids.Unit) (time.Duration, bool) {
	return tb.detectionLatency(u.FirstCorrectAlert())
}

// detectionLatency is DetectionLatency given the unit's end anchor.
func (tb *Testbed) detectionLatency(alert sim.Time, alerted bool) (time.Duration, bool) {
	start, ok := tb.FirstAttackAt()
	if !ok || !alerted || alert < start {
		return 0, false
	}
	return (alert - start).Duration(), true
}

// ScheduleAttack broadcasts one C2 command at the given offset from
// simulation start. It is safe to call before Start (it runs on the
// testbed's scheduler); bots that join between scheduling and firing are
// included, since the broadcast reads the population at fire time.
func (tb *Testbed) ScheduleAttack(at time.Duration, cmd botnet.Command) {
	tb.sched.At(sim.FromDuration(at), func() { tb.c2.Broadcast(cmd) })
}

// ScheduleAttackWave schedules a sequence of C2 attack commands, the first
// at start, each subsequent one gap after the previous ends.
func (tb *Testbed) ScheduleAttackWave(start time.Duration, gap time.Duration, cmds []botnet.Command) {
	at := start
	for _, cmd := range cmds {
		tb.ScheduleAttack(at, cmd)
		at += cmd.OnWire().Duration + gap
	}
}

// DefaultAttackWave builds the paper's three vectors against the TServer:
// SYN flood on :80, ACK flood on :80, UDP flood on random ports.
func (tb *Testbed) DefaultAttackWave(dur time.Duration, pps int) []botnet.Command {
	return []botnet.Command{
		{Type: botnet.AttackSYN, Target: addrTServer, Port: httpapp.DefaultPort, Duration: dur, PPS: pps},
		{Type: botnet.AttackACK, Target: addrTServer, Port: httpapp.DefaultPort, Duration: dur, PPS: pps},
		{Type: botnet.AttackUDP, Target: addrTServer, Port: 0, Duration: dur, PPS: pps},
	}
}

// groundTruth is the testbed's exact traffic oracle, the one statement of
// the policy behind Labeler and the tracer's flow kinds. Anything to or from
// the C2 (registration, keepalive, commands) is botnet control traffic.
// Attack traffic is anything to or from the attacker (telnet scanning,
// loading), anything with an end in the spoof range (forged floods and their
// backscatter), and UDP at the TServer (no benign service uses UDP, so it is
// flood traffic by construction). Everything else is benign.
func groundTruth(src, dst packet.Addr, proto uint8) trace.Kind {
	switch {
	case src == addrC2 || dst == addrC2:
		return trace.KindC2
	case src == addrAttacker || dst == addrAttacker:
		return trace.KindAttack
	case DefaultSpoofRange.Contains(src) || DefaultSpoofRange.Contains(dst):
		return trace.KindAttack
	case proto == packet.ProtoUDP && (src == addrTServer || dst == addrTServer):
		return trace.KindAttack
	}
	return trace.KindBenign
}

// Labeler returns the dataset labeler for this testbed: malicious for C2 and
// attack traffic (see groundTruth), benign for everything else.
func (tb *Testbed) Labeler() func(b *features.Basic) int {
	return func(b *features.Basic) int {
		if groundTruth(b.Src, b.Dst, b.Proto) != trace.KindBenign {
			return dataset.Malicious
		}
		return dataset.Benign
	}
}

// classifyFlow is the tracer's flow-kind oracle: groundTruth on the
// trace.Flow 5-tuple. Flood engines tag their origins KindAttack directly,
// so this mainly classifies netstack origins (benign app flows, C2 sessions,
// scanner probes).
func classifyFlow(f trace.Flow) trace.Kind {
	return groundTruth(packet.AddrFromUint32(f.Src), packet.AddrFromUint32(f.Dst), f.Proto)
}
