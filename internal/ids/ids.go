// Package ids implements the Real-Time IDS Unit of Fig. 2: a passive
// monitor taps the simulated network, a preprocessing stage aggregates
// basic and statistical features over user-configurable time windows (1 s
// in the paper's experiments), and a pluggable ML model classifies every
// packet of each closed window as benign or malicious. Per-window accuracy
// is recorded against the testbed's ground-truth oracle, exactly as §IV-D
// evaluates the three models — and only accuracy, since single-class
// windows make precision/recall undefined in real time.
//
// Units sit behind a Front, the capture front end: one decode per frame,
// one extractor and one snapshot per closed window, however many units it
// serves (a unit from New has a front of its own). A closed window goes
// through three stages. The goroutine that feeds the front (its owner: the
// scheduler's in a live run, the reader's in a replay) takes a snapshot of
// the window out of the extractor's reused storage and sorts it into
// distinct rows; a goroutine started for that window classifies them for
// every unit, chunk by chunk, and an owner that reaches the window's fold
// point before the goroutine is done claims chunks too instead of waiting —
// the models' arithmetic, touching only the snapshot, the models and the
// front's classification buffers; and the owner folds each unit's verdicts
// back — scoring, alerting, tracing, hooks: every effect — at a point the
// input alone fixes (see Unit.Join). The paper runs its IDS in a container
// of its own beside NS-3; this is that container's independent execution.
package ids

import (
	"fmt"
	"math/bits"
	"runtime/debug"
	"sync/atomic"
	"time"

	"ddoshield/internal/dataset"
	"ddoshield/internal/features"
	"ddoshield/internal/ml"
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
	// model records windows without predictions). Two chunks of a window
	// may be in it at once, one on the window's goroutine and one on the
	// front's owner, so its Predict and PredictBatch must be safe for
	// concurrent use, as every model in internal/ml is.
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
	// CPU is the compute time spent on this window — the owner's dispatch
	// (snapshot, distinct rows, verdict bytes), the unit's chunks and its
	// scoring — summed over both goroutines, since the owner may classify
	// some of the chunks itself, and none of the time one goroutine waited
	// for the other. The dispatch is the front's, counted for every unit.
	CPU time.Duration
}

// Unit is the real-time detection pipeline: one model behind a Front. It
// belongs to one goroutine at a time, its front's owner: every method is the
// owner's to call, except FirstCorrectAlertFolded and whatever a
// Config.Registry snapshot reads, which are safe from anywhere.
type Unit struct {
	cfg     Config
	front   *Front
	results []WindowResult
	// hooks are additional OnWindow consumers registered after New (the
	// testbed attaches mitigation responders here); they run after
	// cfg.OnWindow, in registration order.
	hooks []func(r *WindowResult)

	// cpu is the unit's own compute: classification and folds. CPUTime adds
	// the front's.
	cpu time.Duration
	// peakMem is the largest front share plus own footprint at a dispatch.
	peakMem int64

	// Advanced at the fold and atomic, so a registry snapshot reads them
	// from any goroutine without folding, blocking or racing.
	packets, windows, alerts telemetry.Counter
	winCPU                   *telemetry.Histogram
	// firstCorrectAlert is when the unit first alerted on a window that
	// truly contained malicious packets — the detection-latency end anchor
	// (0: not yet; a window's end is never 0).
	firstCorrectAlert atomic.Int64

	// pending holds the "ids-window" spans of sampled packets in the
	// currently open window; they finish with the window's verdict tag.
	pending []trace.Context
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

// New assembles a unit on a front of its own; Front.Subscribe moves it onto
// another unit's.
func New(cfg Config) *Unit {
	if cfg.Name == "" {
		cfg.Name = "ids"
	}
	u := &Unit{cfg: cfg}
	newFront(cfg.Window).add(u)
	unit := telemetry.L("unit", cfg.Name)
	cfg.Registry.RegisterCounter(&u.packets, "ids_packets_total", unit)
	cfg.Registry.RegisterCounter(&u.windows, "ids_windows_total", unit)
	cfg.Registry.RegisterCounter(&u.alerts, "ids_alerts_total", unit)
	u.winCPU = cfg.Registry.NewHistogram("ids_window_cpu_us", windowCPUBounds, unit)
	return u
}

// Name reports the unit's telemetry label.
func (u *Unit) Name() string { return u.cfg.Name }

// Front reports the capture front end the unit is on.
func (u *Unit) Front() *Front { return u.front }

// AddWindowHook registers an additional per-window consumer on an already
// constructed unit (Config.OnWindow still runs first). Response stages
// attach here so one unit can feed detection metrics and mitigation at
// the same time. A unit with a consumer folds each window, and so does
// every other unit on its front, before the call that closed it returns:
// what a hook does (the responder's rule installs) belongs to the closing
// instant.
func (u *Unit) AddWindowHook(fn func(r *WindowResult)) {
	// A window closed before fn existed is not fn's to see.
	u.Join()
	u.hooks = append(u.hooks, fn)
}

// Tap returns the netsim.Tap of the unit's front, which feeds every unit on
// it — attach it to the switch (span port) or to the TServer's link, as
// Fig. 1 places the IDS. A sampled packet's chain gains one "ids-window"
// span per unit that stays open until the packet's window closes and
// finishes tagged with that unit's verdict ("alert"/"clear").
// testbed.AttachIDS attaches it.
func (u *Unit) Tap() netsim.Tap { return u.front.tap }

// FirstCorrectAlert reports when the unit first raised an alert on a
// window that truly contained attack traffic (the per-scenario detection
// latency's end anchor), and whether that has happened.
func (u *Unit) FirstCorrectAlert() (sim.Time, bool) {
	u.Join()
	return u.FirstCorrectAlertFolded()
}

// FirstCorrectAlertFolded is FirstCorrectAlert over the windows folded so
// far: it neither joins nor blocks and is safe from any goroutine, which
// is what a gauge evaluated by a registry snapshot needs.
func (u *Unit) FirstCorrectAlertFolded() (sim.Time, bool) {
	t := u.firstCorrectAlert.Load()
	return sim.Time(t), t != 0
}

// Feed hands an already-dissected packet to the unit's front, for every
// unit on it to classify (offline replay path).
func (u *Unit) Feed(p *packet.Packet) { u.front.feed(p) }

// Flush closes the front's trailing window and folds it. Call at end of run.
func (u *Unit) Flush() { u.front.flush() }

func (u *Unit) addCPU(d time.Duration) {
	u.cpu += d
	if u.cfg.Meter != nil {
		u.cfg.Meter.AddCPU(d)
	}
}

// chunk is how many distinct rows of a closed window are vectorized and
// classified per ml.PredictBatch call, and the unit of work the window's
// goroutine and the owner claim: large enough that a batch kernel's
// per-call cost, the first row's full computation and the claim amortize,
// small enough that a scratch set (chunk × vector length) stays in L1 and
// does not grow with the window.
const chunk = 64

// scratch is one chunk of distinct rows in flight through a model: the
// vectors, their row headers and the verdicts. Nothing here scales with the
// window. A front has two, one per goroutine that claims chunks, whatever
// the number of units.
type scratch struct {
	vecBuf []float64
	rows   [chunk][]float64
	preds  [chunk]int
}

// scratchBytes is a scratch set's footprint at a full chunk: vectors, row
// headers, verdicts. It is a constant of the design, counted whether or not
// the set has classified a chunk yet, so no memory report depends on which
// goroutine happened to claim one.
func scratchBytes() int64 { return chunk * (int64(features.NumFeatures())*8 + 24 + 8) }

// classify vectorizes, scales and classifies one claimed chunk of j's
// unit — the distinct rows at idx — in s, and writes each row's verdict,
// which no other chunk writes. It reads the snapshot and the (immutable)
// model and scaler. Its compute is charged to j, whichever goroutine ran
// it. A panicking model is caught here — on the window's goroutine nothing
// could recover it — and kept in j, the first one only, for Join to
// re-raise on the owner's goroutine; the job's later chunks are skipped.
func (j *job) classify(w *window, s *scratch, idx []int32) {
	if j.failed.Load() {
		return
	}
	u := j.unit
	start := now()
	defer func() {
		if r := recover(); r != nil && j.failed.CompareAndSwap(false, true) {
			j.panicked = fmt.Errorf("ids: unit %s: classifying the window at %v: panic: %v\n%s",
				u.cfg.Name, w.start, r, debug.Stack())
		}
		j.cpu.Add(int64(now() - start))
	}()
	buf := s.vecBuf[:0]
	for _, i := range idx {
		buf = features.AppendVector(buf, &w.pkts[i], &w.stats)
	}
	s.vecBuf = buf
	// Rows are cut after the fill: growing buf on first use moves it.
	nf := len(buf) / len(idx)
	rows := s.rows[:len(idx)]
	for k := range rows {
		rows[k] = buf[k*nf : (k+1)*nf : (k+1)*nf]
		if u.cfg.Scaler != nil {
			u.cfg.Scaler.Transform(rows[k])
		}
	}
	ml.PredictBatch(u.cfg.Model, rows, s.preds[:])
	for k, i := range idx {
		j.verdicts[i] = uint8(s.preds[k])
	}
}

// tableBits sizes distinctRows' table for n packets: the smallest power of
// two at least 2n, as a bit count.
func tableBits(n int) int { return bits.Len(uint(max(n, 1)-1)) + 1 }

// distinctRows maps every packet of a window to the first packet with the
// same row: first[i] ≤ i, and first[i] == i marks a distinct row; distinct
// lists those i in order. Packets share the window's statistics, so equal
// features.RowKeys mean equal vectors and, every model and the scaler being
// a function of the row alone, equal verdicts; a packet without a key is a
// row of its own. The table is open addressing with linear probing over
// first-packet indexes, sized by tableBits so that it stays at most half
// full; once probing is done it holds distinct, which dies with the window.
func distinctRows(pkts []features.Basic) (first, distinct []int32) {
	first = make([]int32, len(pkts))
	b := tableBits(len(pkts))
	table := make([]int32, 1<<b) // first packet's index + 1; 0 is empty
	mask := len(table) - 1
	for i := range pkts {
		first[i] = int32(i)
		key, ok := features.RowKey(&pkts[i])
		if !ok {
			continue
		}
		// Fibonacci hashing: the top b bits of the product mix every key bit.
		for h := int(key * 0x9e3779b97f4a7c15 >> (64 - b)); ; h = (h + 1) & mask {
			e := table[h]
			if e == 0 {
				table[h] = int32(i + 1)
				break
			}
			if k, _ := features.RowKey(&pkts[e-1]); k == key {
				first[i] = e - 1
				break
			}
		}
	}
	// The table has room for 2n entries, so distinct never grows it.
	distinct = table[:0]
	for i, r := range first {
		if int(r) == i {
			distinct = append(distinct, r)
		}
	}
	return first, distinct
}

// Join folds the window in flight on the unit's front, if there is one: it
// classifies the chunks of the window that are still unclaimed, waits for
// the window's goroutine, if the window started one, and applies the
// verdicts of every unit on the front, in subscription order (Front.Join).
// Every fold happens
// here, on the owner's goroutine, and Join is called at points the input
// alone fixes, so a run's results do not depend on how the goroutines were
// scheduled: before the next window is snapshotted; in Flush; in every
// accessor below; as soon as the window is dispatched when a unit on the
// front has a Config.OnWindow or AddWindowHook consumer; and by
// testbed.Testbed.Run when it returns. Callers need not call it: there is
// nothing to close and no goroutine outlives its window.
func (u *Unit) Join() { u.front.Join() }

// fold applies the unit's share of one classified window: every effect of
// detection, in the order a unit that classified inline would have had
// them.
func (u *Unit) fold(w *window, j *job) {
	start := now()
	res := WindowResult{Start: w.start, Packets: len(w.pkts)}
	u.packets.Add(uint64(len(w.pkts)))
	var flagged map[packet.Addr]bool
	var flaggedFlows map[trace.Flow]bool
	for i := range w.pkts {
		b := &w.pkts[i]
		truth := -1
		if u.cfg.Labeler != nil {
			truth = u.cfg.Labeler(b)
			if truth == dataset.Malicious {
				res.TruthMalicious++
			}
		}
		if j.verdicts == nil {
			continue
		}
		pred := int(j.verdicts[w.first[i]])
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
		}
	}
	if res.Packets > 0 {
		res.Accuracy = float64(res.Correct) / float64(res.Packets)
		res.Alert = res.PredMalicious*2 > res.Packets
	}
	// The window's compute on both goroutines; the front's Join and timers
	// charge the unit the same terms, so the per-window figures sum to no
	// more than its CPUTime.
	res.CPU = w.dispatchCPU + time.Duration(j.cpu.Load()) + now() - start
	u.winCPU.Observe(float64(res.CPU) / float64(time.Microsecond))
	verdict := "clear"
	if res.Alert {
		u.alerts.Inc()
		verdict = "alert"
	}
	// Close the window's sampled-packet spans with the verdict at the
	// window boundary — the instant the verdict actually exists.
	windowEnd := w.start.Add(u.WindowSize())
	for _, tc := range j.spans {
		tc.FinishTag(windowEnd, verdict)
	}
	if res.Alert && res.TruthMalicious > 0 {
		u.firstCorrectAlert.CompareAndSwap(0, int64(windowEnd))
	}
	u.cfg.Recorder.Emit(w.start, telemetry.CatIDS, verdict, u.cfg.Name, int64(res.PredMalicious))
	u.results = append(u.results, res)
	u.windows.Inc()
	last := &u.results[len(u.results)-1]
	if u.cfg.OnWindow != nil {
		u.cfg.OnWindow(last)
	}
	for _, hook := range u.hooks {
		hook(last)
	}
}

// ownMem estimates the memory the unit holds beside its front's as a window
// of n packets is dispatched: the model, the scaler and one verdict byte
// per packet. The scratch sets its chunks run in are the front's.
func (u *Unit) ownMem(n int) int64 {
	var mem int64
	if mr, ok := u.cfg.Model.(interface{ MemoryBytes() int64 }); ok {
		mem += mr.MemoryBytes()
	}
	if u.cfg.Scaler != nil {
		mem += int64(len(u.cfg.Scaler.Mean)+len(u.cfg.Scaler.Std)) * 8
	}
	mem += int64(n) // verdicts
	return mem
}

// Results returns the per-window detection timeline.
func (u *Unit) Results() []WindowResult {
	u.Join()
	out := make([]WindowResult, len(u.results))
	copy(out, u.results)
	return out
}

// AverageAccuracy is the mean per-window accuracy — the quantity Table I
// reports for each model.
func (u *Unit) AverageAccuracy() float64 {
	u.Join()
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
	u.Join()
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

// PacketsSeen reports total classified packets.
func (u *Unit) PacketsSeen() uint64 {
	u.Join()
	return u.packets.Value()
}

// CPUTime implements sysmon.Metered: cumulative processing time — what the
// owner spent in Tap, Feed, Flush and the folds plus what the unit's chunks
// cost on whichever goroutine claimed them, and none of the time one
// goroutine waited for the other. It includes all of the front's (Front.CPUTime), which a unit on
// its own would have paid.
func (u *Unit) CPUTime() time.Duration {
	u.Join()
	return u.cpu + u.front.cpu
}

// MemBytes implements sysmon.Metered: the peak live footprint observed,
// the front's share included.
func (u *Unit) MemBytes() int64 {
	u.Join()
	if u.peakMem == 0 {
		return u.front.liveMem(0) + u.ownMem(0)
	}
	return u.peakMem
}

// WindowSize reports the front's aggregation window.
func (u *Unit) WindowSize() time.Duration { return u.front.extractor.WindowSize() }
