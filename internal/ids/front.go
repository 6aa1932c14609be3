package ids

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ddoshield/internal/features"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

// Front is the capture front end of one or more units: one tap, one pooled
// decode per frame, one features.Extractor, one snapshot per closed window
// sorted into distinct rows, shared read-only, and one goroutine per window
// that classifies them for every unit with a model. The paper's §III
// places one capture point in front of several IDS containers; a front is
// that point, and a unit on its own (New) is a front with one subscriber.
//
// A front belongs to one goroutine, its owner, like its units: the
// Tap/Feed/Flush/Join of any unit on it are the front's. A window's
// classification is cut into chunks of distinct rows, one set per unit with
// a model, which the window's goroutine and a joining owner claim from one
// counter, in subscription order and then chunk order: an owner that has to
// wait for a window helps classify it instead. Units fold in subscription
// order at the points a lone unit folds (see Unit.Join); when any of them
// has a Config.OnWindow or AddWindowHook consumer, all of them fold as soon
// as the window is dispatched.
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

	// work holds the two scratch sets a chunk runs in: work[0] is the
	// window goroutine's, work[1] the owner's, whatever the number of units.
	work [2]scratch
	// ownerChunks counts the chunks the owner has classified, so a test can
	// tell that it helped.
	ownerChunks int

	cpu time.Duration
	// joinWall is the wall time Join took inside the Tap, Feed or Flush call
	// now being timed. Join accounts for the compute in it itself; the rest
	// is waiting, which is nobody's CPU.
	joinWall time.Duration
	peakMem  int64
}

// window is one closed window on its way through the pipeline. The owner
// fills all of it but the verdicts, the claim counter and the jobs' cpu and
// panic fields before it starts the window's goroutine; until done is
// released those are written by that goroutine and by the chunks the owner
// claims, as their comments say; after it, all of it is the owner's again.
type window struct {
	// The snapshot: the window's packets and statistics, copied out of the
	// extractor's storage (which the next window reuses). Allocated per
	// window and dropped at the fold: a recycled spare would be live heap
	// for the whole run.
	start sim.Time
	pkts  []features.Basic
	stats features.Stats
	// dispatchCPU is what the dispatch cost the owner: the snapshot, the
	// distinct rows and the verdict bytes.
	dispatchCPU time.Duration
	// jobs are the units' shares of the window, in subscription order.
	jobs []job

	// first and distinct are the snapshot's distinct rows (distinctRows),
	// set only when a unit has a model. chunks is how many chunks of them
	// a job classifies, and claims that times the jobs: claim c is chunk
	// c%chunks of jobs[c/chunks], skipped when that unit has no model.
	// Claims are taken from next.
	first, distinct []int32
	chunks, claims  int
	next            atomic.Int64
	// done is released by the window's goroutine when it finds no claim
	// left; a window without claims starts no goroutine.
	done sync.WaitGroup
}

// job is one unit's share of a window: the spans that wait for its verdict
// and, written by whichever goroutine classified each chunk, the verdicts
// themselves.
type job struct {
	unit  *Unit
	spans []trace.Context

	// verdicts is the model's class of each distinct row, at the index of
	// its first packet (window.first); nil without a model.
	verdicts []uint8
	// cpu is the compute of the job's chunks, on either goroutine.
	cpu atomic.Int64
	// failed is set by the first chunk that panicked, which alone writes
	// panicked; the job's later chunks are skipped.
	failed   atomic.Bool
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

// epoch is where the package's timers count from: since(epoch) is one read
// of the monotonic clock, where time.Now also reads the wall clock.
var epoch = time.Now()

// now is the monotonic time since epoch.
func now() time.Duration { return time.Since(epoch) }

// startTimer and stopTimer bracket one Tap, Feed or Flush call and charge
// the front the caller's compute in it: the wall clock less the joins inside.
func (f *Front) startTimer() time.Duration {
	f.joinWall = 0
	return now()
}

func (f *Front) stopTimer(start time.Duration) {
	f.addCPU(now() - start - f.joinWall)
}

func (f *Front) addCPU(d time.Duration) {
	f.cpu += d
	for _, m := range f.meters {
		m.AddCPU(d)
	}
}

// dispatch takes one closed window from the extractor: it folds the window
// before it, snapshots this one once for every unit, sorts it into distinct
// rows when a unit has a model, and starts the window's goroutine when there
// is a chunk to classify. Only a front with a consumer among its units waits
// for the verdicts here.
func (f *Front) dispatch(cw *features.Window) {
	f.Join()
	start := now()
	n := len(cw.Packets)
	w := &window{
		start: cw.Start,
		pkts:  append([]features.Basic(nil), cw.Packets...),
		stats: cw.Stats,
		jobs:  make([]job, len(f.units)),
	}
	// Track the high-water marks for the memory reports.
	shared := f.liveMem(n)
	f.peakMem = max(f.peakMem, shared)
	fold, models := false, false
	for i, u := range f.units {
		w.jobs[i] = job{unit: u, spans: u.pending}
		u.pending = nil
		u.peakMem = max(u.peakMem, shared+u.ownMem(n))
		fold = fold || u.cfg.OnWindow != nil || len(u.hooks) > 0
		if u.cfg.Model != nil {
			w.jobs[i].verdicts = make([]uint8, n)
			models = true
		}
	}
	if models {
		w.first, w.distinct = distinctRows(w.pkts)
		w.chunks = (len(w.distinct) + chunk - 1) / chunk
		w.claims = len(w.jobs) * w.chunks
	}
	f.inflight = w
	w.dispatchCPU = now() - start
	if w.claims > 0 {
		w.done.Add(1)
		go f.classifyWindow(w)
	}
	if fold {
		f.Join()
	}
}

// classifyWindow is the window's own goroutine: it classifies the chunks it
// claims in work[0] and releases done when none is left. It touches the
// window's claim counter, work[0] and the verdicts and fields of the jobs
// whose chunks it claimed, nothing else.
func (f *Front) classifyWindow(w *window) {
	defer w.done.Done()
	f.classifyChunks(w, &f.work[0])
}

// classifyChunks claims chunks of w until none is left, classifies each in
// s, and reports how many it classified. A claim on a unit without a model
// is skipped.
func (f *Front) classifyChunks(w *window, s *scratch) int {
	n := 0
	for {
		c := int(w.next.Add(1) - 1)
		if c >= w.claims {
			return n
		}
		j := &w.jobs[c/w.chunks]
		if j.verdicts == nil {
			continue
		}
		k := c % w.chunks * chunk
		j.classify(w, s, w.distinct[k:min(k+chunk, len(w.distinct))])
		n++
	}
}

// Join folds the window in flight, if there is one: it helps classify the
// window, claiming chunks with its own scratch set until none is left, then
// waits for the window's goroutine and applies every unit's verdicts, in
// subscription order. A unit whose model panicked, in a chunk either
// goroutine ran, re-raises the panic here, on the owner's goroutine, after
// the units before it have folded.
func (f *Front) Join() {
	w := f.inflight
	if w == nil {
		return
	}
	start := now()
	f.ownerChunks += f.classifyChunks(w, &f.work[1])
	w.done.Wait()
	f.inflight = nil
	for i := range w.jobs {
		j := &w.jobs[i]
		if j.panicked != nil {
			panic(j.panicked)
		}
		foldStart := now()
		j.unit.fold(w, j)
		j.unit.addCPU(time.Duration(j.cpu.Load()) + now() - foldStart)
	}
	f.joinWall += now() - start
}

// liveMem estimates the memory the front holds as a window of n packets is
// dispatched: the extractor's window buffer, the window's snapshot beside it
// until the fold, the window's distinct-row buffers (distinctRows' table,
// which then holds the list of distinct rows, and per-packet index) and the
// two scratch sets chunks run in.
func (f *Front) liveMem(n int) int64 {
	mem := int64(n)*40 + // features.Basic footprint
		int64(n)*40 + // snapshot
		int64(n)*4 + 4<<tableBits(n) // distinct rows
	return mem + int64(len(f.work))*scratchBytes()
}

// CPUTime is what the front itself cost — decode, windowing and the
// dispatches: snapshots, distinct rows and verdict bytes — once, however
// many units it serves. Chunks are their units' cost, whichever goroutine
// ran them. It implements sysmon.Metered.
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
