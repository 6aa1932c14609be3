package ids

import (
	"slices"
	"sync"
	"time"

	"ddoshield/internal/features"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

// Front is the capture front end of one or more units: one tap, one pooled
// decode per frame, one features.Extractor, one snapshot per closed window,
// shared read-only, and one goroutine per window that runs the units'
// models back to back, in subscription order. The paper's §III places one
// capture point in front of several IDS containers; a front is that point,
// and a unit on its own (New) is a front with one subscriber.
//
// A front belongs to one goroutine, its owner, like its units: the
// Tap/Feed/Flush/Join of any unit on it are the front's. Units fold in
// subscription order at the points a lone unit folds (see Unit.Join); when
// any of them has a Config.OnWindow or AddWindowHook consumer, all of them
// fold as soon as the window is dispatched.
//
// Cost is paid once and attributed to every unit: CPUTime and MemBytes of a
// unit include the front's share, as a container per IDS would pay it, while
// each distinct Config.Meter of the subscribers is charged the front's share
// once. The front's own figures are its CPUTime and MemBytes.
type Front struct {
	extractor *features.Extractor
	units     []*Unit
	// meters are the subscribers' distinct Config.Meters.
	meters []Meter
	// seen is set by the first frame: a front that has seen traffic takes no
	// more subscribers, which would miss what it saw.
	seen bool

	// inflight is the window being classified, nil once folded. There is at
	// most one: the next window is not snapshotted before this one is folded.
	inflight *window

	cpu time.Duration
	// joinWall is the wall time Join took inside the Tap, Feed or Flush call
	// now being timed. Join accounts for the compute in it itself; the rest
	// is waiting, which is nobody's CPU.
	joinWall time.Duration
	peakMem  int64
}

// window is one closed window on its way through the pipeline. The owner
// fills the snapshot and starts the window's goroutine; until done is
// released the distinct rows, the jobs' results and the units' chunk
// buffers are that goroutine's, everything else the owner's; after it, all
// of it is the owner's again.
type window struct {
	// The snapshot: the window's packets and statistics, copied out of the
	// extractor's storage (which the next window reuses). Allocated per
	// window and dropped at the fold: a recycled spare would be live heap
	// for the whole run.
	start sim.Time
	pkts  []features.Basic
	stats features.Stats
	// snapCPU is what taking the snapshot cost the owner.
	snapCPU time.Duration
	// jobs are the units' shares of the window, in subscription order.
	jobs []job

	// Written by the window's goroutine, read after done: distinctRows of the
	// snapshot (nil while no unit with a model has run) and what it cost.
	first   []int32
	rowsCPU time.Duration
	done    sync.WaitGroup
}

// job is one unit's share of a window: the spans that wait for its verdict
// and, written by the window's goroutine, the verdicts themselves.
type job struct {
	unit  *Unit
	spans []trace.Context

	verdicts []uint8 // the model's class per packet; nil without a model
	cpu      time.Duration
	panicked error
}

func newFront(window time.Duration) *Front {
	f := &Front{}
	f.extractor = features.NewExtractor(window, f.dispatch)
	return f
}

// Subscribe moves u onto f, so that both classify the frames f captures from
// now on, and reports whether it did. It does not when f has already seen a
// frame, when its window size differs from u's, or when u's own front has
// seen a frame or has other units: each of these would change what u sees.
// Subscribing a unit already on f does nothing and reports true.
func (f *Front) Subscribe(u *Unit) bool {
	old := u.front
	if old == f {
		return true
	}
	if f.seen || old.seen || len(old.units) != 1 || f.extractor.WindowSize() != old.extractor.WindowSize() {
		return false
	}
	// What u's own front cost so far (empty Flushes) was u's alone; its
	// meter has been charged already.
	u.cpu += old.cpu
	old.units = nil
	f.add(u)
	return true
}

func (f *Front) add(u *Unit) {
	u.front = f
	f.units = append(f.units, u)
	if m := u.cfg.Meter; m != nil && !slices.Contains(f.meters, m) {
		f.meters = append(f.meters, m)
	}
}

// tap is the front's netsim.Tap: one pooled decode and one extractor step per
// frame, and for a sampled frame one "ids-window" span per unit.
func (f *Front) tap(t sim.Time, raw []byte, tc trace.Context) {
	f.seen = true
	start := f.startTimer()
	// Pooled decode: AddPacket copies the Basic features out by value, so
	// the Packet never outlives the tap callback.
	p := packet.Acquire()
	if err := packet.DecodeInto(p, t, raw); err == nil {
		p.Trace = tc
		// AddPacket first: if this packet rotates the window, the old
		// window's pending spans leave with it before this one enrolls.
		f.extractor.AddPacket(p)
		if tc.Sampled() {
			for _, u := range f.units {
				if len(u.pending) < maxPendingSpans {
					u.pending = append(u.pending, tc.Start(t, "ids-window", u.cfg.Name))
				}
			}
		}
	}
	p.Release()
	f.stopTimer(start)
}

func (f *Front) feed(p *packet.Packet) {
	f.seen = true
	start := f.startTimer()
	f.extractor.AddPacket(p)
	f.stopTimer(start)
}

func (f *Front) flush() {
	start := f.startTimer()
	f.extractor.Flush()
	f.Join()
	f.stopTimer(start)
}

// startTimer and stopTimer bracket one Tap, Feed or Flush call and charge
// the front the caller's compute in it: the wall clock less the joins inside.
func (f *Front) startTimer() time.Time {
	f.joinWall = 0
	return time.Now()
}

func (f *Front) stopTimer(start time.Time) {
	f.addCPU(time.Since(start) - f.joinWall)
}

func (f *Front) addCPU(d time.Duration) {
	f.cpu += d
	for _, m := range f.meters {
		m.AddCPU(d)
	}
}

// dispatch takes one closed window from the extractor: it folds the window
// before it, snapshots this one once for every unit and starts its
// goroutine. Only a front with a consumer among its units waits for the
// verdicts here.
func (f *Front) dispatch(cw *features.Window) {
	f.Join()
	start := time.Now()
	n := len(cw.Packets)
	w := &window{
		start: cw.Start,
		pkts:  append([]features.Basic(nil), cw.Packets...),
		stats: cw.Stats,
		jobs:  make([]job, len(f.units)),
	}
	// Track the high-water marks for the memory reports; the units' chunk
	// buffers are read before the window's goroutine may grow them.
	shared := f.liveMem(n)
	f.peakMem = max(f.peakMem, shared)
	fold := false
	for i, u := range f.units {
		w.jobs[i] = job{unit: u, spans: u.pending}
		u.pending = nil
		u.peakMem = max(u.peakMem, shared+u.ownMem(n))
		fold = fold || u.cfg.OnWindow != nil || len(u.hooks) > 0
	}
	f.inflight = w
	w.snapCPU = time.Since(start)
	w.done.Add(1)
	go classifyWindow(w)
	if fold {
		f.Join()
	}
}

// classifyWindow is the window's own goroutine: it sorts the snapshot into
// distinct rows once, for the first unit with a model, and runs every unit's
// classification over them in subscription order. It touches the window and
// what Unit.classify touches, nothing else.
func classifyWindow(w *window) {
	defer w.done.Done()
	for i := range w.jobs {
		j := &w.jobs[i]
		if j.unit.cfg.Model == nil {
			continue
		}
		if w.first == nil {
			start := time.Now()
			w.first = distinctRows(w.pkts)
			w.rowsCPU = time.Since(start)
		}
		j.unit.classify(w, j)
	}
}

// Join folds the window in flight, if there is one: it waits for the
// window's goroutine and applies every unit's verdicts, in subscription
// order. A unit whose model panicked re-raises the panic here, on the
// owner's goroutine, after the units before it have folded.
func (f *Front) Join() {
	w := f.inflight
	if w == nil {
		return
	}
	start := time.Now()
	w.done.Wait()
	f.inflight = nil
	f.addCPU(w.rowsCPU)
	for i := range w.jobs {
		j := &w.jobs[i]
		if j.panicked != nil {
			panic(j.panicked)
		}
		foldStart := time.Now()
		j.unit.fold(w, j)
		j.unit.addCPU(j.cpu + time.Since(foldStart))
	}
	f.joinWall += time.Since(start)
}

// liveMem estimates the memory the front holds as a window of n packets is
// dispatched: the extractor's window buffer, the window's snapshot beside it
// until the fold, and the window's distinct-row buffers (distinctRows'
// table and per-packet index).
func (f *Front) liveMem(n int) int64 {
	return int64(n)*40 + // features.Basic footprint
		int64(n)*40 + // snapshot
		int64(n)*4 + 4<<tableBits(n) // distinct rows
}

// CPUTime is what the front itself cost — decode, windowing, snapshots and
// distinct rows — once, however many units it serves. It implements
// sysmon.Metered.
func (f *Front) CPUTime() time.Duration {
	f.Join()
	return f.cpu
}

// MemBytes is the front's own peak live footprint, once, however many units
// it serves. It implements sysmon.Metered.
func (f *Front) MemBytes() int64 {
	f.Join()
	if f.peakMem == 0 {
		return f.liveMem(0)
	}
	return f.peakMem
}
