// Package ids implements the Real-Time IDS Unit of Fig. 2: a passive
// monitor taps the simulated network, a preprocessing stage aggregates
// basic and statistical features over user-configurable time windows (1 s
// in the paper's experiments), and a pluggable ML model classifies every
// packet of each closed window as benign or malicious. Per-window accuracy
// is recorded against the testbed's ground-truth oracle, exactly as §IV-D
// evaluates the three models — and only accuracy, since single-class
// windows make precision/recall undefined in real time.
package ids

import (
	"time"

	"ddoshield/internal/dataset"
	"ddoshield/internal/features"
	"ddoshield/internal/ml"
	"ddoshield/internal/ml/metrics"
	"ddoshield/internal/netsim"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/telemetry/trace"
)

// Labeler is the ground-truth oracle: it maps a packet to dataset.Benign
// or dataset.Malicious. The testbed supplies one built from its knowledge
// of the botnet's addresses and spoof ranges.
type Labeler func(b *features.Basic) int

// Meter receives CPU attributions (container.Container satisfies it).
type Meter interface {
	AddCPU(d time.Duration)
}

// Config assembles a detection unit.
type Config struct {
	// Model is the trained classifier (required for detection; a nil
	// model records windows without predictions).
	Model ml.Classifier
	// Scaler, when set, standardizes vectors before prediction with the
	// training-time statistics.
	Scaler *dataset.StandardScaler
	// Window is the aggregation window (default 1 s).
	Window time.Duration
	// Labeler provides ground truth for accuracy scoring (optional).
	Labeler Labeler
	// Meter, when set, additionally receives CPU attributions (e.g. the
	// IDS container).
	Meter Meter
	// OnWindow, when set, receives every closed window's result as soon as
	// it is scored — the hook automated responses (mitigation) attach to.
	OnWindow func(r *WindowResult)
	// Name labels this unit's telemetry (default "ids").
	Name string
	// Registry, when set, exposes packet/window/alert counters and a
	// per-window CPU histogram under ids_* metric names.
	Registry *telemetry.Registry
	// Recorder, when set, receives one trace event per closed window,
	// stamped with the window's opening instant.
	Recorder *telemetry.Recorder
}

// WindowResult is the detection outcome for one closed window.
type WindowResult struct {
	// Start is the window's opening instant.
	Start sim.Time
	// Packets is the number of classified packets.
	Packets int
	// PredMalicious and TruthMalicious count packets per class.
	PredMalicious  int
	TruthMalicious int
	// Correct counts packets whose prediction matched ground truth.
	Correct int
	// Accuracy is Correct/Packets (0 when no labeler is configured).
	Accuracy float64
	// Alert reports whether the majority of packets were classified
	// malicious — the unit's per-window verdict.
	Alert bool
	// FlaggedSrcs are the distinct source addresses of packets the model
	// classified malicious in this window (response actions target them).
	FlaggedSrcs []packet.Addr
	// FlaggedFlows are the distinct 5-tuples of packets the model
	// classified malicious, capped at maxFlaggedFlows — the per-flow
	// verdicts an inline mitigation stage installs.
	FlaggedFlows []trace.Flow
	// CPU is the compute time spent processing this window.
	CPU time.Duration
}

// Unit is the real-time detection pipeline.
type Unit struct {
	cfg       Config
	extractor *features.Extractor
	results   []WindowResult
	confusion metrics.Confusion
	// hooks are additional OnWindow consumers registered after New (the
	// testbed attaches mitigation responders here); they run after
	// cfg.OnWindow, in registration order.
	hooks []func(r *WindowResult)

	cpu     time.Duration
	peakMem int64
	// One chunk of packets in flight through the model: the vectors, their
	// row headers and the verdicts. Nothing here scales with the window.
	vecBuf   []float64
	rows     [chunk][]float64
	preds    [chunk]int
	packets  uint64
	alerts   uint64
	detached bool
	winCPU   *telemetry.Histogram

	// pending holds the "ids-window" spans of sampled packets in the
	// currently open window; they finish with the window's verdict tag.
	pending []trace.Context
	// firstCorrectAlert is when the unit first alerted on a window that
	// truly contained malicious packets — the detection-latency end anchor.
	firstCorrectAlert     sim.Time
	haveFirstCorrectAlert bool
}

// maxPendingSpans caps verdict-pending spans per window so a fully sampled
// flood cannot grow the slice without bound; excess packets simply end
// their traces at delivery.
const maxPendingSpans = 4096

// maxFlaggedFlows caps the distinct 5-tuples reported per window: a
// spoofed flood forges a fresh tuple per packet, and the responder's
// per-flow verdicts are pointless past its own install cap anyway.
const maxFlaggedFlows = 512

// windowCPUBounds buckets per-window processing cost in microseconds.
var windowCPUBounds = []float64{10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// New assembles a unit.
func New(cfg Config) *Unit {
	if cfg.Name == "" {
		cfg.Name = "ids"
	}
	u := &Unit{cfg: cfg}
	u.extractor = features.NewExtractor(cfg.Window, u.onWindow)
	unit := telemetry.L("unit", cfg.Name)
	cfg.Registry.RegisterCounterFunc(func() uint64 { return u.packets }, "ids_packets_total", unit)
	cfg.Registry.RegisterCounterFunc(func() uint64 { return uint64(len(u.results)) }, "ids_windows_total", unit)
	cfg.Registry.RegisterCounterFunc(func() uint64 { return u.alerts }, "ids_alerts_total", unit)
	u.winCPU = cfg.Registry.NewHistogram("ids_window_cpu_us", windowCPUBounds, unit)
	return u
}

// Name reports the unit's telemetry label.
func (u *Unit) Name() string { return u.cfg.Name }

// AddWindowHook registers an additional per-window consumer on an already
// constructed unit (Config.OnWindow still runs first). Response stages
// attach here so one unit can feed detection metrics and mitigation at
// the same time.
func (u *Unit) AddWindowHook(fn func(r *WindowResult)) {
	u.hooks = append(u.hooks, fn)
}

// Tap returns a netsim.Tap that feeds the unit — attach it to the switch
// (span port) or to the TServer's link, as Fig. 1 places the IDS.
func (u *Unit) Tap() netsim.Tap {
	return func(t sim.Time, raw []byte) {
		if u.detached {
			return
		}
		start := time.Now()
		// Pooled decode: AddPacket copies the Basic features out by value,
		// so the Packet never outlives the tap callback.
		p := packet.Acquire()
		if err := packet.DecodeInto(p, t, raw); err == nil {
			u.extractor.AddPacket(p)
		}
		p.Release()
		u.addCPU(time.Since(start))
	}
}

// TapCtx is Tap joined to the causal-tracing plane: a sampled packet's
// chain gains an "ids-window" span that stays open until the packet's
// window closes and finishes tagged with the verdict ("alert"/"clear").
// Attach via testbed.AttachIDS or netsim's AddTapCtx.
func (u *Unit) TapCtx() netsim.TapCtx {
	return func(t sim.Time, raw []byte, tc trace.Context) {
		if u.detached {
			return
		}
		start := time.Now()
		p := packet.Acquire()
		if err := packet.DecodeInto(p, t, raw); err == nil {
			p.Trace = tc
			// AddPacket first: if this packet rotates the window, the old
			// window's pending spans are flushed before this one enrolls.
			u.extractor.AddPacket(p)
			if tc.Sampled() && len(u.pending) < maxPendingSpans {
				u.pending = append(u.pending, tc.Start(t, "ids-window", u.cfg.Name))
			}
		}
		p.Release()
		u.addCPU(time.Since(start))
	}
}

// FirstCorrectAlert reports when the unit first raised an alert on a
// window that truly contained attack traffic (the per-scenario detection
// latency's end anchor), and whether that has happened.
func (u *Unit) FirstCorrectAlert() (sim.Time, bool) {
	return u.firstCorrectAlert, u.haveFirstCorrectAlert
}

// Feed classifies an already-dissected packet (offline replay path).
func (u *Unit) Feed(p *packet.Packet) {
	start := time.Now()
	u.extractor.AddPacket(p)
	u.addCPU(time.Since(start))
}

// Flush closes the trailing window. Call at end of run.
func (u *Unit) Flush() {
	start := time.Now()
	u.extractor.Flush()
	u.addCPU(time.Since(start))
}

// Detach stops consuming tapped traffic.
func (u *Unit) Detach() { u.detached = true }

func (u *Unit) addCPU(d time.Duration) {
	u.cpu += d
	if u.cfg.Meter != nil {
		u.cfg.Meter.AddCPU(d)
	}
}

// chunk is how many packets of a closed window are vectorized and
// classified per ml.PredictBatch call: large enough that a batch kernel's
// per-call cost and the first row's full computation amortize, small enough
// that the unit's buffers (chunk × vector length) stay in L1 and do not
// grow with the window.
const chunk = 64

// onWindow runs preprocessing + detection for one closed window.
func (u *Unit) onWindow(w *features.Window) {
	start := time.Now()
	res := WindowResult{Start: w.Start, Packets: len(w.Packets)}
	// Track the window buffer high-water mark for the memory report.
	if mem := u.liveMem(len(w.Packets)); mem > u.peakMem {
		u.peakMem = mem
	}
	var flagged map[packet.Addr]bool
	var flaggedFlows map[trace.Flow]bool
	for lo := 0; lo < len(w.Packets); lo += chunk {
		pkts := w.Packets[lo:min(lo+chunk, len(w.Packets))]
		u.packets += uint64(len(pkts))
		if u.cfg.Model != nil {
			u.classify(pkts, &w.Stats)
		}
		for i := range pkts {
			b := &pkts[i]
			truth := -1
			if u.cfg.Labeler != nil {
				truth = u.cfg.Labeler(b)
				if truth == dataset.Malicious {
					res.TruthMalicious++
				}
			}
			if u.cfg.Model == nil {
				continue
			}
			pred := u.preds[i]
			if pred == dataset.Malicious {
				res.PredMalicious++
				if flagged == nil {
					flagged = make(map[packet.Addr]bool)
				}
				if !flagged[b.Src] {
					flagged[b.Src] = true
					res.FlaggedSrcs = append(res.FlaggedSrcs, b.Src)
				}
				if len(res.FlaggedFlows) < maxFlaggedFlows {
					f := trace.Flow{
						Src: b.Src.Uint32(), Dst: b.Dst.Uint32(),
						SrcPort: b.SrcPort, DstPort: b.DstPort,
						Proto: b.Proto,
					}
					if flaggedFlows == nil {
						flaggedFlows = make(map[trace.Flow]bool)
					}
					if !flaggedFlows[f] {
						flaggedFlows[f] = true
						res.FlaggedFlows = append(res.FlaggedFlows, f)
					}
				}
			}
			if truth >= 0 {
				if pred == truth {
					res.Correct++
				}
				u.confusion.Add(truth, pred)
			}
		}
	}
	if res.Packets > 0 {
		res.Accuracy = float64(res.Correct) / float64(res.Packets)
		res.Alert = res.PredMalicious*2 > res.Packets
	}
	// The Feed/Tap/Flush call that closed this window is timing it already;
	// res.CPU is the per-window figure only.
	res.CPU = time.Since(start)
	u.winCPU.Observe(float64(res.CPU) / float64(time.Microsecond))
	verdict := "clear"
	if res.Alert {
		u.alerts++
		verdict = "alert"
	}
	// Close the window's sampled-packet spans with the verdict at the
	// window boundary — the instant the verdict actually exists.
	windowEnd := w.Start.Add(u.extractor.WindowSize())
	for _, tc := range u.pending {
		tc.FinishTag(windowEnd, verdict)
	}
	u.pending = u.pending[:0]
	if res.Alert && res.TruthMalicious > 0 && !u.haveFirstCorrectAlert {
		u.haveFirstCorrectAlert = true
		u.firstCorrectAlert = windowEnd
	}
	u.cfg.Recorder.Emit(w.Start, telemetry.CatIDS, verdict, u.cfg.Name, int64(res.PredMalicious))
	u.results = append(u.results, res)
	last := &u.results[len(u.results)-1]
	if u.cfg.OnWindow != nil {
		u.cfg.OnWindow(last)
	}
	for _, hook := range u.hooks {
		hook(last)
	}
}

// classify fills u.preds[:len(pkts)] with the model's verdicts for pkts
// (at most chunk of them), vectorized against their window's statistics.
func (u *Unit) classify(pkts []features.Basic, st *features.Stats) {
	buf := u.vecBuf[:0]
	for i := range pkts {
		buf = features.AppendVector(buf, &pkts[i], st)
	}
	u.vecBuf = buf
	// Rows are cut after the fill: growing buf on first use moves it.
	nf := len(buf) / len(pkts)
	rows := u.rows[:len(pkts)]
	for i := range rows {
		rows[i] = buf[i*nf : (i+1)*nf : (i+1)*nf]
		if u.cfg.Scaler != nil {
			u.cfg.Scaler.Transform(rows[i])
		}
	}
	ml.PredictBatch(u.cfg.Model, rows, u.preds[:])
}

// liveMem estimates current memory held by the unit: the model, the scaler,
// the window buffer and the chunk buffers.
func (u *Unit) liveMem(windowPackets int) int64 {
	var mem int64
	if mr, ok := u.cfg.Model.(interface{ MemoryBytes() int64 }); ok {
		mem += mr.MemoryBytes()
	}
	if u.cfg.Scaler != nil {
		mem += int64(len(u.cfg.Scaler.Mean)+len(u.cfg.Scaler.Std)) * 8
	}
	mem += int64(windowPackets) * 40             // features.Basic footprint
	mem += int64(cap(u.vecBuf))*8 + chunk*(24+8) // vectors, row headers, verdicts
	return mem
}

// Results returns the per-window detection timeline.
func (u *Unit) Results() []WindowResult {
	out := make([]WindowResult, len(u.results))
	copy(out, u.results)
	return out
}

// AverageAccuracy is the mean per-window accuracy — the quantity Table I
// reports for each model.
func (u *Unit) AverageAccuracy() float64 {
	if len(u.results) == 0 {
		return 0
	}
	var s float64
	for i := range u.results {
		s += u.results[i].Accuracy
	}
	return s / float64(len(u.results))
}

// MinAccuracy is the worst single-window accuracy — the per-second dip the
// paper reports at attack boundaries (35% minimum for K-Means).
func (u *Unit) MinAccuracy() float64 {
	if len(u.results) == 0 {
		return 0
	}
	m := u.results[0].Accuracy
	for i := range u.results {
		if u.results[i].Accuracy < m {
			m = u.results[i].Accuracy
		}
	}
	return m
}

// Confusion returns the packet-level confusion matrix across all windows.
func (u *Unit) Confusion() metrics.Confusion { return u.confusion }

// PacketsSeen reports total classified packets.
func (u *Unit) PacketsSeen() uint64 { return u.packets }

// CPUTime implements sysmon.Metered: cumulative processing time.
func (u *Unit) CPUTime() time.Duration { return u.cpu }

// MemBytes implements sysmon.Metered: the peak live footprint observed.
func (u *Unit) MemBytes() int64 {
	if u.peakMem == 0 {
		return u.liveMem(0)
	}
	return u.peakMem
}

// WindowSize reports the configured aggregation window.
func (u *Unit) WindowSize() time.Duration { return u.extractor.WindowSize() }
