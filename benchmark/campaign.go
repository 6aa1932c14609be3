package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"ddoshield/internal/apps/httpapp"
	"ddoshield/internal/botnet"
	"ddoshield/internal/devices"
	"ddoshield/internal/faults"
	"ddoshield/internal/ids"
	"ddoshield/internal/mitigation"
	"ddoshield/internal/ml/modelio"
	"ddoshield/internal/netsim"
	"ddoshield/internal/pcap"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/testbed"
)

type detectKind int

const (
	detectNone detectKind = iota
	// detectModels puts the three trained detectors live on the tap once
	// the infection lead is over, as experiments.RunRealTimeModels does.
	detectModels
	// detectRuleMitigation attaches a threshold-rule unit with the inline
	// verdict-cache firewall and responder before the campaign starts.
	detectRuleMitigation
)

// wave is one scheduled attack command. The flood's aggregate rate is part
// of the generated input; the per-bot rate is worked out when the command
// is issued (aggregate / bots online), so the load offered to the testbed
// does not swing with how many devices a seed happened to conscript.
type wave struct {
	At           time.Duration // from campaign start
	Type         botnet.AttackType
	Port         uint16
	Duration     time.Duration
	AggregatePPS int
}

// campaign is everything the seed generates. The program under test sees
// only this value.
type campaign struct {
	Workload string
	Smoke    bool
	Cfg      testbed.Config
	// Lead runs before the timed region and counts as set-up; Measure is
	// the timed region, both in simulated time.
	Lead, Measure time.Duration
	Waves         []wave
	Chaos         faults.Plan
	Detect        detectKind
	Window        time.Duration
	// MitigationCache sizes the verdict cache and BlockTTL bounds the
	// responder's rules (detectRuleMitigation).
	MitigationCache int
	BlockTTL        time.Duration
	// CapturePath, when set, records the frames the detectors see to a pcap
	// file (the ids-replay input).
	CapturePath string
}

// kmeansAccuracyFloor is the check on paper10-live's K-Means average
// per-window accuracy. The first baseline runs (seeds 1..12) read 0.84-0.95
// (RF 0.59-0.67, CNN 0.60-0.93); the floor sits well under their minimum so
// it trips on a broken pipeline, not on seed-to-seed drift.
const kmeansAccuracyFloor = 0.70

// pdesWorkers keeps the engine's execution slots within the cores the
// harness was given.
func pdesWorkers(domains int) int { return min(domains, runtime.GOMAXPROCS(0)) }

// httpOnly restricts a fleet to its HTTP workloads: edge servers speak
// HTTP only.
func httpOnly(fleet []devices.Profile, forceHTTP bool) []devices.Profile {
	out := make([]devices.Profile, 0, len(fleet))
	for _, p := range fleet {
		if forceHTTP {
			p.HTTP = true
		}
		p.Video, p.FTP = false, false
		out = append(out, p)
	}
	return out
}

// vectorWaves lays SYN/ACK/UDP waves of length dur separated by gap from
// start until end, the repeating pattern of experiments.scheduleAttacks.
func vectorWaves(start, end, dur, gap time.Duration, aggregate int) []wave {
	vectors := []struct {
		t    botnet.AttackType
		port uint16
	}{{botnet.AttackSYN, httpapp.DefaultPort}, {botnet.AttackACK, httpapp.DefaultPort}, {botnet.AttackUDP, 0}}
	var out []wave
	at := start
	for i := 0; at < end; i++ {
		v := vectors[i%len(vectors)]
		out = append(out, wave{At: at, Type: v.t, Port: v.port, Duration: dur, AggregatePPS: aggregate})
		at += dur + gap
		if i%len(vectors) == len(vectors)-1 {
			at += gap
		}
	}
	return out
}

// paper10 is the experiments.Quick() detection run: 10 devices on the flat
// switch, full benign mix, tracing at 1/64 — without Quick()'s device churn.
// A video stream whose viewer rebooted keeps filling the server's send
// buffer until the connection times out, so with churn the heap at the end
// of the run read 15 to 66 MB depending on the seed (12 MB, +-1.3 %,
// without); churn is chaos120-defended's business.
func paper10(name string, seed int64, smoke bool) campaign {
	c := campaign{
		Workload: name, Smoke: smoke,
		Cfg: testbed.Config{
			Seed:            seed + 1, // the training run used seed; detection is a separate session
			NumDevices:      10,
			MeanThink:       3 * time.Second,
			ScanInterval:    150 * time.Millisecond,
			TraceSampleRate: 1.0 / 64,
		},
		Lead: 75 * time.Second, Measure: detectWindow,
		Detect: detectModels, Window: time.Second,
	}
	if smoke {
		c.Lead, c.Measure = 25*time.Second, 12*time.Second
	}
	jitter := time.Duration(sim.Substream(seed, "benchmark/attack-schedule").Intn(2000)) * time.Millisecond
	c.Waves = vectorWaves(c.Lead+5*time.Second+jitter, c.Lead+c.Measure, 12*time.Second, 3*time.Second, 2400)
	return c
}

func fleet120(name string, seed int64, smoke bool, domains int) campaign {
	c := campaign{
		Workload: name, Smoke: smoke,
		Cfg: testbed.Config{
			Seed:         seed,
			NumDevices:   120,
			DeviceGroups: 8,
			EdgeServers:  true,
			Profiles:     httpOnly(devices.DefaultFleet, true),
			MeanThink:    120 * time.Millisecond,
			TrunkLink:    netsim.LinkConfig{Delay: 5 * sim.Millisecond},
			Domains:      domains,
			PDESWorkers:  pdesWorkers(domains),
		},
		Measure: 30 * time.Second,
	}
	if smoke {
		c.Measure = 3 * time.Second
	}
	return c
}

// scale50k is the experiments scale-sweep shape. The simulated duration
// stays at 5 s on purpose: see README.md, "scale-duration blow-up".
func scale50k(seed int64, smoke bool) campaign {
	c := campaign{
		Workload: wlScale50k, Smoke: smoke,
		Cfg: testbed.Config{
			Seed:             seed,
			NumDevices:       50_000,
			DeviceGroups:     64,
			EdgeServers:      true,
			Profiles:         httpOnly(devices.ScaleFleet, false),
			MeanThink:        60 * time.Second,
			ScanInterval:     time.Millisecond,
			ScannableDevices: 2048,
			TrunkLink:        netsim.LinkConfig{Delay: 5 * sim.Millisecond},
			Domains:          17,
			PDESWorkers:      pdesWorkers(17),
			PrimeARP:         true,
		},
		Measure: 5 * time.Second,
	}
	if smoke {
		c.Cfg.NumDevices, c.Cfg.DeviceGroups, c.Cfg.Domains = 2000, 8, 3
		c.Cfg.PDESWorkers = pdesWorkers(3)
		c.Measure = 2 * time.Second
	}
	// The sweep's own back-half flood (SYN/ACK/UDP waves of d/8 = 625 ms)
	// never fires: commands carry whole seconds on the wire, so the bots
	// are told to flood for 0 s. A SYN or ACK flood that did fire would
	// have the TServer ARP for every spoofed source across the whole L2 —
	// the blow-up README.md records. A UDP flood uses the bots' own
	// (primed) addresses, so it loads the trunks and the core and nothing
	// else.
	c.Waves = []wave{{At: c.Measure / 2, Type: botnet.AttackUDP, Duration: 2 * time.Second, AggregatePPS: 10_000}}
	if smoke {
		c.Waves[0].Duration = time.Second
	}
	return c
}

// chaos120 is the grouped 120-device fleet aimed at the central TServer
// under churn, lossy access links, the seeded chaos plan, UDP flood waves
// and the closed defense loop. Three choices keep its cost a property of
// the code instead of the seed's luck (README.md, "findings", has the
// measurements behind each):
//   - HTTP only: a video stream whose viewer was churned away keeps growing
//     the server's send buffer, and the wall clock of one and the same event
//     sequence then ranges from 2 to 17 s; FTP files parked in the send
//     buffers of churned devices put the peak RSS anywhere from 40 to 58 MB
//     (30 to 37 MB without);
//   - UDP floods only: the threshold rule sees a SYN or ACK flood only once
//     the victim's backlog overflows, and an unseen spoofed flood has the
//     TServer ARP for every forged source across the L2 — a run either pays
//     for that storm or does not;
//   - a fast scanner with a short re-infection cooldown, so the botnet
//     survives 20 s churn, and 5 s block rules, so the fleet's /24 is
//     blocked during the waves and served between them.
func chaos120(seed int64, smoke bool) campaign {
	c := campaign{
		Workload: wlChaosDefense, Smoke: smoke,
		Cfg: testbed.Config{
			Seed:             seed,
			NumDevices:       120,
			DeviceGroups:     8,
			Profiles:         httpOnly(devices.DefaultFleet, false),
			MeanThink:        500 * time.Millisecond,
			ScanInterval:     20 * time.Millisecond,
			ReinfectCooldown: 5 * time.Second,
			TrunkLink:        netsim.LinkConfig{Delay: 5 * sim.Millisecond},
			Link:             netsim.LinkConfig{LossProb: 0.01},
			Churn:            testbed.ChurnConfig{Enabled: true, MeanUp: 20 * time.Second, MeanDown: 2 * time.Second},
		},
		Measure: 120 * time.Second,
		Detect:  detectRuleMitigation, Window: time.Second,
		MitigationCache: 256,
		BlockTTL:        5 * time.Second,
	}
	if smoke {
		c.Measure = 16 * time.Second
	}
	c.Chaos = faults.Random(faults.RandomConfig{
		Seed:      seed + 7,
		Start:     2 * time.Second,
		Window:    c.Measure - 2*time.Second,
		Intensity: 0.5,
	})
	jitter := time.Duration(sim.Substream(seed, "benchmark/attack-schedule").Intn(2000)) * time.Millisecond
	const on, off = 6 * time.Second, 6 * time.Second
	for at := on + jitter; at < c.Measure-on; at += on + off {
		c.Waves = append(c.Waves, wave{At: at, Type: botnet.AttackUDP, Duration: on, AggregatePPS: 3000})
	}
	return c
}

// newCampaign generates a workload's inputs from the seed.
func newCampaign(name string, seed int64, smoke bool) (campaign, error) {
	switch name {
	case wlPaper10Live:
		return paper10(name, seed, smoke), nil
	case wlFleetSerial:
		return fleet120(name, seed, smoke, 1), nil
	case wlFleetPDES:
		return fleet120(name, seed, smoke, 9), nil
	case wlScale50k:
		return scale50k(seed, smoke), nil
	case wlChaosDefense:
		return chaos120(seed, smoke), nil
	}
	return campaign{}, fmt.Errorf("no simulated campaign for workload %q", name)
}

// interval is one issued attack command: its span of simulated time and
// the flood rate it commanded across all bots.
type interval struct {
	from, to time.Duration
	pps      int
}

// simRun is one campaign being executed: the testbed plus what the harness
// attached to it.
type simRun struct {
	c     campaign
	tb    *testbed.Testbed
	tr    *tracer
	units []*ids.Unit
	fw    *mitigation.Firewall
	cap   *pcap.Buffer
	fired []interval
	now   time.Duration
	// buildWall and startWall are set-up's testbed.New and Start.
	buildWall, startWall time.Duration
	rec                  recorderScan
	// sliceMs collects, by phase, the wall milliseconds each traced
	// one-simulated-second slice took.
	sliceMs map[string][]float64
}

// issue sends one wave's command to the bots online right now, retrying a
// second later (with the remaining duration) while the botnet is empty.
func (r *simRun) issue(w wave) {
	bots := r.tb.C2().Bots()
	if bots == 0 {
		if w.Duration > 2*time.Second {
			w.At += time.Second
			w.Duration -= time.Second
			r.schedule(w)
		}
		return
	}
	perBot := max(1, w.AggregatePPS/bots)
	r.tb.C2().Broadcast(botnet.Command{
		Type: w.Type, Target: r.tb.TServerAddr(), Port: w.Port,
		Duration: w.Duration, PPS: perBot,
	})
	r.fired = append(r.fired, interval{w.At, w.At + w.Duration, perBot * bots})
}

func (r *simRun) schedule(w wave) {
	r.tb.Scheduler().At(sim.FromDuration(w.At), func() { r.issue(w) })
}

func (r *simRun) events() uint64 {
	if e := r.tb.Engine(); e != nil {
		var n uint64
		for i := 0; i < e.NumDomains(); i++ {
			n += e.Domain(i).Stats().Events
		}
		return n
	}
	return r.tb.Scheduler().Fired()
}

// phaseOf labels the slice [from, to) of simulated time.
func (r *simRun) phaseOf(from, to time.Duration) string {
	for _, iv := range r.fired {
		if iv.from < to && iv.to > from {
			return "flood"
		}
	}
	if len(r.fired) > 0 {
		return "recovery"
	}
	if _, _, _, infections := r.tb.Attacker().Stats(); infections > 0 {
		return "infection"
	}
	return "benign"
}

// advance runs the simulation for d. Traced, it goes one simulated second
// at a time with a span per slice, labelled by campaign phase and carrying
// the counter deltas read at the slice's closing boundary.
func (r *simRun) advance(d time.Duration, parent int, stage string) error {
	if r.tr == nil {
		r.now += d
		return r.tb.Run(d)
	}
	for left := d; left > 0; {
		step := min(left, time.Second)
		ev0, link0 := r.events(), r.tb.TServer().Link().Counters().TxFrames
		id := r.tr.begin(stage, parent)
		start := time.Now()
		if err := r.tb.Run(step); err != nil {
			return err
		}
		wall := time.Since(start)
		phase := r.phaseOf(r.now, r.now+step)
		r.tr.spans[id-1].Name = stage + ":" + phase
		r.rec.scan(r.tb.Recorder())
		r.tr.end(id, map[string]float64{
			"sim_from_s":      r.now.Seconds(),
			"events":          float64(r.events() - ev0),
			"tserver_frames":  float64(r.tb.TServer().Link().Counters().TxFrames - link0),
			"infected":        float64(r.tb.InfectedCount()),
			"bots":            float64(r.tb.C2().Bots()),
			"tcp_retransmits": float64(r.rec.retransmits),
			"tcp_syn_drops":   float64(r.rec.synDrops),
		})
		r.sliceMs[phase] = append(r.sliceMs[phase], float64(wall.Nanoseconds())/1e6/step.Seconds())
		r.now += step
		left -= step
	}
	return nil
}

// recorderScan counts transport events out of the flight recorder's ring.
// Scanned at every traced slice boundary the ring rarely wraps in between;
// when it does the counts are lower bounds and gaps says by how much.
type recorderScan struct {
	next        uint64
	retransmits uint64
	synDrops    uint64
	gaps        uint64
}

func (s *recorderScan) scan(rec *telemetry.Recorder) {
	for _, ev := range rec.Events() {
		if ev.Seq < s.next {
			continue
		}
		s.gaps += ev.Seq - s.next
		s.next = ev.Seq + 1
		if ev.Cat != telemetry.CatTCP {
			continue
		}
		switch ev.Name {
		case "retransmit":
			s.retransmits++
		case "syn-drop":
			s.synDrops++
		}
	}
}

// attachDetectors wires the campaign's detection stack to the tap.
func (r *simRun) attachDetectors(bundles []modelio.Bundle) {
	tb := r.tb
	switch r.c.Detect {
	case detectModels:
		for _, b := range bundles {
			u := ids.New(ids.Config{
				Model: b.Model, Scaler: b.Scaler, Window: r.c.Window,
				Labeler: tb.Labeler(), Meter: tb.IDSContainer(), Name: b.Model.Name(),
				Registry: tb.Registry(), Recorder: tb.Recorder(),
			})
			tb.AttachIDS(u)
			r.units = append(r.units, u)
		}
	case detectRuleMitigation:
		// No registry on the unit: ids_window_cpu_us is a wall-clock
		// histogram and would make the digest host-dependent.
		rule := ids.NewThresholdRule()
		rule.SynNoAck, rule.UDPFrac = 3, 0.1
		u := ids.New(ids.Config{Model: rule, Window: r.c.Window, Labeler: tb.Labeler()})
		tb.AttachIDS(u)
		r.fw = tb.AttachMitigation(u, testbed.MitigationConfig{
			CacheSize: r.c.MitigationCache,
			Responder: mitigation.ResponderConfig{BlockTTL: r.c.BlockTTL},
		})
		r.units = append(r.units, u)
	}
	if r.c.CapturePath != "" {
		r.cap = pcap.NewBuffer(0)
		tb.AddTap(r.cap.Tap())
	}
}

// digest fingerprints the run's deterministic artifacts: Summary plus the
// Prometheus snapshot without its wall-clock series.
func digest(tb *testbed.Testbed) (string, error) {
	var prom strings.Builder
	if err := telemetry.WritePrometheus(&prom, tb.Registry()); err != nil {
		return "", err
	}
	h := sha256.New()
	io.WriteString(h, tb.Summary())
	for _, line := range strings.SplitAfter(prom.String(), "\n") {
		if !strings.Contains(line, "ids_window_cpu_us") {
			io.WriteString(h, line)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

func shortHash(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8])
}

// alertString renders a unit's per-window verdicts as "start:0|1" tokens.
func alertString(u *ids.Unit) string {
	var b strings.Builder
	for _, w := range u.Results() {
		v := 0
		if w.Alert {
			v = 1
		}
		fmt.Fprintf(&b, "%d:%d ", int64(w.Start/sim.Second), v)
	}
	return b.String()
}

// setUp does everything that precedes the timed region: build, start, arm
// the fault plan and the attack schedule, run the infection lead, attach
// the detectors.
func setUp(c campaign, bundles []modelio.Bundle, tr *tracer, root int) (*simRun, error) {
	r := &simRun{c: c, tr: tr, sliceMs: map[string][]float64{}}
	id := tr.begin("testbed.New", root)
	start := time.Now()
	tb, err := testbed.New(c.Cfg)
	if err != nil {
		return nil, err
	}
	r.buildWall = time.Since(start)
	tr.end(id, map[string]float64{"devices": float64(c.Cfg.NumDevices)})
	r.tb = tb
	if c.Lead == 0 {
		r.attachDetectors(bundles)
	}
	id = tr.begin("testbed.Start", root)
	start = time.Now()
	tb.Start()
	r.startWall = time.Since(start)
	tr.end(id, nil)
	if !c.Chaos.Empty() {
		tb.Injector().Schedule(c.Chaos)
	}
	for _, w := range c.Waves {
		r.schedule(w)
	}
	if c.Lead > 0 {
		id = tr.begin("lead", root)
		if err := r.advance(c.Lead, id, "lead"); err != nil {
			return nil, err
		}
		tr.end(id, nil)
		r.attachDetectors(bundles)
	}
	return r, nil
}

// runSim executes one repeat of a simulated campaign in this process:
// set-up, the timed region, then collection and checks.
func runSim(c campaign, bundles []modelio.Bundle, tr *tracer) (*repResult, error) {
	res := &repResult{Workload: c.Workload, Counters: map[string]float64{}}
	root := tr.begin("rep", 0)

	start := time.Now()
	r, err := setUp(c, bundles, tr, root)
	if err != nil {
		return nil, err
	}
	res.SetupS = time.Since(start).Seconds()
	// The collection that levels the heap before the timed region is the
	// harness's hygiene, not the program's set-up: on a 120-device fleet it
	// is as long as the build itself and takes 2 or 6 ms depending on
	// whether the second core's GC worker woke up.
	runtime.GC()
	tb := r.tb

	gc0 := readGC()
	ev0, before := r.events(), r.tally()
	id := tr.begin("timed", root)
	timedStart := time.Now()
	if err := r.advance(c.Measure, id, "run"); err != nil {
		return nil, err
	}
	res.TimedS = time.Since(timedStart).Seconds()
	tr.end(id, nil)
	gc1 := readGC()
	res.SimS = c.Measure.Seconds()
	res.LiveHeapMB = liveHeapMB()
	res.PeakRSSMB = peakRSSMB()
	tr.end(root, nil)

	for _, u := range r.units {
		u.Flush()
	}
	if res.Digest, err = digest(tb); err != nil {
		return nil, err
	}
	res.Events = r.events() - ev0
	r.collect(res, before)
	hostCounters(gc0, gc1, res.Counters)
	r.check(res)
	runtime.KeepAlive(tb)

	if r.cap != nil {
		if err := writeCapture(c.CapturePath, r.cap); err != nil {
			return nil, err
		}
		res.Counters["capture.records"] = float64(r.cap.Len())
	}
	if tr != nil {
		res.Phases = phaseStats(r.sliceMs)
	}
	return res, nil
}

func writeCapture(path string, buf *pcap.Buffer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := buf.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tally is the cumulative work the fleet has done, read from public
// accessors; the timed region's share is the difference of two tallies.
type tally struct {
	delivered, dropped uint64 // frames handed to a NIC; frames lost anywhere
	completed          uint64 // benign application transactions served
	probes             uint64 // scanner probes
}

func (r *simRun) tally() tally {
	var t tally
	tb := r.tb
	for _, nd := range tb.Network().Nodes() {
		for _, nic := range nd.NICs() {
			rx, _, _, _ := nic.Stats()
			t.delivered += rx
			t.dropped += nic.IngressDropped()
		}
	}
	for _, l := range tb.Network().Links() {
		t.dropped += l.Counters().Drops()
	}
	t.dropped += tb.Switch().PartitionDrops()
	if r.c.Cfg.EdgeServers {
		// The edge servers are out of reach; their clients are not, and
		// these fleets do not churn, so client counters never reset.
		for _, d := range tb.Devices() {
			_, c := d.Device.BenignStats()
			t.completed += c
		}
	} else {
		// Churn replaces a rebooted device's clients (and their counters),
		// so the central TServer's side is the one that adds up.
		requests, _ := tb.HTTPServer().Stats()
		streams, _ := tb.VideoServer().Stats()
		_, transfers, _, _ := tb.FTPServer().Stats()
		t.completed = requests + streams + transfers
	}
	t.probes, _, _, _ = tb.Attacker().Stats()
	return t
}

// commandedFlood is how many flood packets the issued commands asked for
// inside [from, to): rate x overlap. Bots churned away mid-wave send less,
// so it bounds the flood from above.
func (r *simRun) commandedFlood(from, to time.Duration) float64 {
	var n float64
	for _, iv := range r.fired {
		if lo, hi := max(iv.from, from), min(iv.to, to); hi > lo {
			n += float64(iv.pps) * (hi - lo).Seconds()
		}
	}
	return n
}

// collect reads the per-workload layer counts: work done inside the timed
// region (before is the tally at its start), plus end-of-run state.
func (r *simRun) collect(res *repResult, before tally) {
	tb, n, k := r.tb, float64(r.c.Cfg.NumDevices), res.Counters
	now := r.tally()
	k["sim.events"] = float64(res.Events)
	if e := tb.Engine(); e != nil {
		k["sim.pdes_epochs"] = float64(e.Epochs())
	}
	if w := tb.Profiler().WallProfile(); w != nil {
		var exec, wait float64
		for _, d := range w.PerDomain {
			exec, wait = exec+d.ExecMS, wait+d.WaitMS
		}
		if exec+wait > 0 {
			k["sim.pdes_barrier_wait_share"] = wait / (exec + wait)
		}
	}
	k["netsim.frames_delivered"] = float64(now.delivered - before.delivered)
	k["netsim.frames_dropped"] = float64(now.dropped - before.dropped)
	k["apps.txns_ok"] = float64(now.completed - before.completed)
	// Started but not completed, per client since its device last booted.
	var unfinished uint64
	for _, d := range tb.Devices() {
		s, c := d.Device.BenignStats()
		unfinished += s - c
	}
	k["apps.txns_failed"] = float64(unfinished)
	k["botnet.probes"] = float64(now.probes - before.probes)
	k["botnet.flood_commanded"] = r.commandedFlood(r.c.Lead, r.c.Lead+r.c.Measure)
	_, _, _, infections := tb.Attacker().Stats()
	k["botnet.infected"] = float64(infections)
	var injections uint64
	for _, fc := range tb.FaultCounters() {
		injections += fc.Count
	}
	k["faults.injections"] = float64(injections)
	var restarts int
	for _, s := range tb.DeviceSupervisors() {
		restarts += s.Restarts()
	}
	k["container.restarts"] = float64(restarts)
	k["testbed.build_us_per_device"] = float64(r.buildWall.Microseconds()) / n
	k["testbed.start_us_per_device"] = float64(r.startWall.Microseconds()) / n
	for _, u := range r.units {
		k["ids.packets."+u.Name()] = float64(u.PacketsSeen())
		k["ids.cpu_s."+u.Name()] = u.CPUTime().Seconds()
		k["ids.accuracy."+u.Name()] = u.AverageAccuracy()
	}
	if r.fw != nil {
		ev, dr := r.fw.Stats()
		cs := r.fw.CacheStats()
		k["mitigation.evaluated"], k["mitigation.dropped"] = float64(ev), float64(dr)
		if cs.Hits+cs.Misses > 0 {
			k["mitigation.cache_hit_share"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
		}
		k["mitigation.cache_evictions"] = float64(cs.Evictions)
	}
	if r.tr != nil {
		k["netstack.retransmits"], k["netstack.syn_drops"] = float64(r.rec.retransmits), float64(r.rec.synDrops)
		k["recorder.gaps"] = float64(r.rec.gaps)
	}
	if len(r.units) > 0 && r.c.Detect == detectModels {
		res.Alerts = map[string]string{}
		for _, u := range r.units {
			res.Alerts[u.Name()] = alertString(u)
		}
	}
}

// check evaluates the workload's correctness conditions. Smoke runs are too
// short for the campaign-shape checks (nothing gets infected in seconds),
// so there only errors and digests count.
func (r *simRun) check(res *repResult) {
	if r.c.Smoke {
		return
	}
	k := res.Counters
	if len(r.c.Waves) > 0 {
		res.check("device-infected", k["botnet.infected"] > 0, "attacker infections = %v", k["botnet.infected"])
		_, commands := r.tb.C2().Stats()
		observed := len(r.fired) > 0 && len(r.tb.C2().Intervals()) > 0 && commands > 0
		res.check("attack-observed", observed, "%d of %d waves issued, %d commands reached bots", len(r.fired), len(r.c.Waves), commands)
	}
	if r.c.Detect == detectModels {
		var truth int
		for _, u := range r.units {
			for _, w := range u.Results() {
				truth += w.TruthMalicious
			}
		}
		res.check("attack-window-seen", truth > 0, "%d malicious packets in IDS windows", truth)
		acc := k["ids.accuracy.kmeans"]
		res.check("kmeans-accuracy", acc >= kmeansAccuracyFloor, "average accuracy %.3f, floor %.2f", acc, kmeansAccuracyFloor)
	}
	if r.c.Detect == detectRuleMitigation {
		res.check("faults-fired", k["faults.injections"] > 0, "%v injections", k["faults.injections"])
		res.check("firewall-dropped", k["mitigation.dropped"] > 0, "%v of %v frames dropped", k["mitigation.dropped"], k["mitigation.evaluated"])
		ttm, ok := r.tb.TimeToMitigate(r.fw)
		res.check("time-to-mitigate", ok, "time to mitigate %s", ttm)
	}
}
