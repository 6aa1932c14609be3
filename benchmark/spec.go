package main

// The tables in this file are the benchmark's contract: workload names,
// metric names, units, directions and regression bounds. BENCHMARK.json at
// the repository root repeats them for the PR driver; main_test.go fails
// when the two disagree.

// Workload names are stable identifiers.
const (
	wlPaper10Live  = "paper10-live"
	wlIDSReplay    = "ids-replay"
	wlFleetSerial  = "fleet120-serial"
	wlFleetPDES    = "fleet120-pdes"
	wlScale50k     = "scale50k-pdes"
	wlChaosDefense = "chaos120-defended"
)

type workloadSpec struct {
	Name string
	// Why is one line: what the workload stresses and why it was chosen.
	Why string
}

var workloads = []workloadSpec{
	{wlPaper10Live, "the paper's real-time run: 10 devices, full benign mix, Mirai waves, RF+K-Means+CNN live on the tap; ids/features/ml dominate the wall clock, the event heap stays shallow"},
	{wlIDSReplay, "no simulator: a captured paper10 run replayed through pcap, packet, features, ml and ids (the cmd/detect path); the no-change-expected workload for every simulator optimisation"},
	{wlFleetSerial, "120 HTTP-only devices behind 8 edge groups for 30 simulated seconds on one scheduler: netstack, apps and the netsim hop path over a moderately deep event heap"},
	{wlFleetPDES, "byte-for-byte the fleet120-serial campaign at Domains=9: the row engine, barrier and outbox changes are judged on, and must not move the serial row"},
	{wlScale50k, "50000 mostly-idle devices in 64 groups at Domains=17 for 5 simulated seconds: topology build, per-device memory and a deep timer heap dominate"},
	{wlChaosDefense, "the 120-device fleet off every fast path: churn, lossy links, seeded chaos faults, flood waves and an inline verdict-cache firewall at the victim's ingress"},
}

func specOf(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression (end-to-end only).
	Bound float64 `json:"bound,omitempty"`
	// Moves says which end-to-end metric a layer metric should move and on
	// which workload (per-layer only; documentation, printed by -trace).
	Moves string `json:"moves,omitempty"`
}

// End-to-end metric names. Every workload emits all of them.
const (
	mSetup    = "setup_s"
	mSimRate  = "sim_s_per_wall_s"
	mLiveHeap = "live_heap_mb"
	mPeakRSS  = "peak_rss_mb"
	// mFailShare is printed by the all-workloads run and decides its exit
	// code. The PR driver's schema forbids metrics that are normally 0, so
	// there it travels as the result line's attempted/failed pair instead.
	mFailShare = "fail_share"
)

// The bounds are set by the steadiness the PR driver demands, not by taste:
// across ten runs on ten different seeds the interquartile range of a
// metric has to stay inside its bound on every workload, and a third of the
// bound is the target. README.md, "Observed spreads", has the ten-seed
// figures from the shared 2-core reference box: sim_s_per_wall_s up to 15 %
// (the VM's own wander, plus scale50k-pdes, where a seed's stray ARP
// broadcasts cost 50 000 deliveries each), peak_rss_mb up to 13 %
// (chaos120-defended, GC pacing over a 6 MB heap), live_heap_mb up to 7 %.
// ISSUE.md asked for 10/8/3/10 %. Its absolute floor on setup_s (a change
// must also exceed 0.02 s) has no place in the driver's schema; the harness's
// own -verify-repeat comparison keeps it (setupFloorS).
var endToEnd = []metricSpec{
	{Name: mSetup, Unit: "s", Better: "lower", Bound: 0.25},
	{Name: mSimRate, Unit: "sim-s/wall-s", Better: "higher", Bound: 0.25},
	{Name: mLiveHeap, Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: mPeakRSS, Unit: "MB", Better: "lower", Bound: 0.25},
}

const (
	allFleet = "fleet120-serial, fleet120-pdes"
	idsPair  = "ids-replay, paper10-live"
)

// perLayer lists every layer metric the traced run reports. Micro-costs
// (ns, us, allocs) are workload-independent; counts and shares are read
// from the traced workload and are 0 where the layer does no work.
var perLayer = []metricSpec{
	{Name: "sim.sched_ns_per_event.d1", Unit: "ns", Better: "lower", Moves: mSimRate + " on " + wlPaper10Live},
	{Name: "sim.sched_ns_per_event.d1k", Unit: "ns", Better: "lower", Moves: mSimRate + " on " + allFleet},
	{Name: "sim.sched_ns_per_event.d100k", Unit: "ns", Better: "lower", Moves: mSimRate + " on " + wlScale50k},
	{Name: "sim.cancel_ns", Unit: "ns", Better: "lower", Moves: mSimRate + " on " + allFleet + " (TCP timers)"},
	{Name: "sim.xdomain_post_ns", Unit: "ns", Better: "lower", Moves: mSimRate + " on fleet120-pdes, scale50k-pdes only"},
	{Name: "sim.events", Unit: "count", Better: "lower", Moves: mSimRate + " on the traced workload; must not change for a pure speed-up"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower", Moves: mSimRate + " on the traced workload; 0 on ids-replay"},
	{Name: "sim.pdes_epochs", Unit: "count", Better: "lower", Moves: mSimRate + " on fleet120-pdes, scale50k-pdes only"},
	{Name: "sim.pdes_barrier_wait_share", Unit: "ratio", Better: "lower", Moves: mSimRate + " on fleet120-pdes, scale50k-pdes only"},
	{Name: "sim.pdes_speedup", Unit: "ratio", Better: "higher", Moves: "fleet120-pdes over fleet120-serial " + mSimRate + "; reported on fleet120-pdes"},

	{Name: "packet.build_decode_ns", Unit: "ns", Better: "lower", Moves: mSimRate + " on " + idsPair},
	{Name: "packet.allocs_per_op", Unit: "count", Better: "lower", Moves: mSimRate + " on " + idsPair},

	{Name: "netsim.hop_ns_per_frame", Unit: "ns", Better: "lower", Moves: mSimRate + " on " + allFleet + ", paper10-live; none on ids-replay"},
	{Name: "netsim.hop_allocs", Unit: "count", Better: "lower", Moves: mSimRate + ", host.alloc_mb on " + allFleet},
	{Name: "netsim.broadcast_ns_per_port", Unit: "ns", Better: "lower", Moves: mSimRate + " on scale50k-pdes"},
	{Name: "netsim.frames_delivered", Unit: "count", Better: "lower", Moves: "work done by the traced workload"},
	{Name: "netsim.frames_dropped", Unit: "count", Better: "lower", Moves: "chaos120-defended, paper10-live (flood queue drops)"},

	{Name: "netstack.tcp_ns_per_segment", Unit: "ns", Better: "lower", Moves: mSimRate + " on " + allFleet},
	{Name: "netstack.tcp_conn_ns", Unit: "ns", Better: "lower", Moves: mSimRate + " on " + allFleet},
	{Name: "netstack.udp_ns_per_datagram", Unit: "ns", Better: "lower", Moves: mSimRate + " on paper10-live (UDP flood sink)"},
	{Name: "netstack.retransmits", Unit: "count", Better: "lower", Moves: mSimRate + " on chaos120-defended"},
	{Name: "netstack.syn_drops", Unit: "count", Better: "lower", Moves: "chaos120-defended, paper10-live (SYN flood backlog)"},

	{Name: "apps.http_txn_us", Unit: "us", Better: "lower", Moves: mSimRate + " on " + allFleet},
	{Name: "apps.txns_ok", Unit: "count", Better: "higher", Moves: "work done by the traced workload"},
	{Name: "apps.txns_failed", Unit: "count", Better: "lower", Moves: "chaos120-defended (started but not completed)"},

	{Name: "botnet.flood_ns_per_packet", Unit: "ns", Better: "lower", Moves: mSimRate + " on paper10-live, chaos120-defended"},
	{Name: "botnet.scan_probe_ns", Unit: "ns", Better: "lower", Moves: mSimRate + " on scale50k-pdes, paper10-live"},
	{Name: "botnet.infected", Unit: "count", Better: "higher", Moves: "campaign shape of the traced workload"},

	{Name: "testbed.build_us_per_device", Unit: "us", Better: "lower", Moves: mSetup + " on scale50k-pdes"},
	{Name: "testbed.start_us_per_device", Unit: "us", Better: "lower", Moves: mSetup + " on scale50k-pdes"},
	{Name: "testbed.heap_bytes_per_device", Unit: "B", Better: "lower", Moves: mLiveHeap + ", " + mPeakRSS + " on scale50k-pdes"},
	{Name: "container.restart_us", Unit: "us", Better: "lower", Moves: mSimRate + " on chaos120-defended"},
	{Name: "faults.injections", Unit: "count", Better: "higher", Moves: "chaos120-defended only"},

	{Name: "dataset.generate_s", Unit: "s", Better: "lower", Moves: mSetup + " on paper10-live"},
	{Name: "dataset.samples", Unit: "count", Better: "higher", Moves: "training-set size behind ml.train_s"},
	{Name: "ml.train_s.rf", Unit: "s", Better: "lower", Moves: mSetup + " on paper10-live"},
	{Name: "ml.train_s.kmeans", Unit: "s", Better: "lower", Moves: mSetup + " on paper10-live"},
	{Name: "ml.train_s.cnn", Unit: "s", Better: "lower", Moves: mSetup + " on paper10-live"},
	{Name: "ml.predict_ns.rf", Unit: "ns", Better: "lower", Moves: mSimRate + " on " + idsPair},
	{Name: "ml.predict_ns.kmeans", Unit: "ns", Better: "lower", Moves: mSimRate + " on " + idsPair},
	{Name: "ml.predict_ns.cnn", Unit: "ns", Better: "lower", Moves: mSimRate + " on " + idsPair},
	{Name: "ml.model_kb.rf", Unit: "KB", Better: "lower", Moves: mSetup + " on ids-replay, " + mPeakRSS + " on " + idsPair},
	{Name: "ml.model_kb.kmeans", Unit: "KB", Better: "lower", Moves: mSetup + " on ids-replay"},
	{Name: "ml.model_kb.cnn", Unit: "KB", Better: "lower", Moves: mSetup + " on ids-replay"},
	{Name: "modelio.load_ms", Unit: "ms", Better: "lower", Moves: mSetup + " on ids-replay"},

	{Name: "features.extract_us_per_window", Unit: "us", Better: "lower", Moves: mSimRate + " on " + idsPair + "; none on fleet120-*, scale50k-pdes"},
	{Name: "features.ns_per_packet", Unit: "ns", Better: "lower", Moves: mSimRate + " on " + idsPair},
	{Name: "features.allocs_per_window", Unit: "count", Better: "lower", Moves: mSimRate + " on " + idsPair},
	{Name: "ids.feed_ns_per_packet", Unit: "ns", Better: "lower", Moves: mSimRate + " on " + idsPair},
	{Name: "ids.window_us.p50.rf", Unit: "us", Better: "lower", Moves: mSimRate + " on ids-replay (traced ids-replay only)"},
	{Name: "ids.window_us.p90.rf", Unit: "us", Better: "lower", Moves: mSimRate + " on ids-replay (traced ids-replay only)"},
	{Name: "ids.window_us.p50.kmeans", Unit: "us", Better: "lower", Moves: mSimRate + " on ids-replay (traced ids-replay only)"},
	{Name: "ids.window_us.p90.kmeans", Unit: "us", Better: "lower", Moves: mSimRate + " on ids-replay (traced ids-replay only)"},
	{Name: "ids.window_us.p50.cnn", Unit: "us", Better: "lower", Moves: mSimRate + " on ids-replay (traced ids-replay only)"},
	{Name: "ids.window_us.p90.cnn", Unit: "us", Better: "lower", Moves: mSimRate + " on ids-replay (traced ids-replay only)"},
	{Name: "pcap.read_ns_per_record", Unit: "ns", Better: "lower", Moves: mSimRate + " on ids-replay"},

	{Name: "mitigation.admit_ns.hit", Unit: "ns", Better: "lower", Moves: mSimRate + " on chaos120-defended only"},
	{Name: "mitigation.admit_ns.miss", Unit: "ns", Better: "lower", Moves: mSimRate + " on chaos120-defended only"},
	{Name: "mitigation.admit_ns.evict", Unit: "ns", Better: "lower", Moves: mSimRate + " on chaos120-defended only"},
	{Name: "mitigation.cache_hit_share", Unit: "ratio", Better: "higher", Moves: "chaos120-defended only"},
	{Name: "mitigation.evaluated", Unit: "count", Better: "lower", Moves: "chaos120-defended only"},
	{Name: "mitigation.dropped", Unit: "count", Better: "higher", Moves: "chaos120-defended only"},

	{Name: "telemetry.counter_inc_ns", Unit: "ns", Better: "lower", Moves: mSimRate + " on every simulated workload"},
	{Name: "telemetry.trace_unsampled_ns", Unit: "ns", Better: "lower", Moves: mSimRate + " on paper10-live"},
	{Name: "telemetry.trace_span_ns", Unit: "ns", Better: "lower", Moves: mSimRate + " on paper10-live"},
	{Name: "telemetry.trace_cost_share", Unit: "ratio", Better: "lower", Moves: "paper10-live wall at TraceSampleRate 1/64 vs 0; reported on paper10-live"},

	{Name: "host.gc_cycles", Unit: "count", Better: "lower", Moves: mSimRate + " on the traced workload"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower", Moves: mSimRate + " on the traced workload"},
	{Name: "host.alloc_mb", Unit: "MB", Better: "lower", Moves: mSimRate + ", " + mPeakRSS + " on the traced workload"},

	{Name: "phase.benign_ms_per_sim_s.p50", Unit: "ms", Better: "lower", Moves: "wall per simulated second before the first infection"},
	{Name: "phase.infection_ms_per_sim_s.p50", Unit: "ms", Better: "lower", Moves: "wall per simulated second while the botnet grows"},
	{Name: "phase.flood_ms_per_sim_s.p50", Unit: "ms", Better: "lower", Moves: "wall per simulated second during attack waves"},
	{Name: "phase.recovery_ms_per_sim_s.p50", Unit: "ms", Better: "lower", Moves: "wall per simulated second between and after waves"},

	{Name: "layersum.residual_share", Unit: "ratio", Better: "lower", Moves: "1 - sum(count x micro-cost)/run wall; reported on fleet120-serial, paper10-live"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Moves: "traced wall vs untraced wall of the traced workload"},
}
