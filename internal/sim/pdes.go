// Conservative parallel discrete-event engine (PDES).
//
// The Engine partitions a simulation into K Domains, each owning a private
// Scheduler, and runs them on a fixed crew of worker goroutines — the
// caller's and workers−1 helpers — that claim each epoch's domain windows
// one at a time. Synchronization uses the classic conservative-lookahead
// rule executed as synchronous epochs: with T
// the global minimum next-event time and L the lookahead (the minimum
// latency of any cross-domain interaction), every event in [T, T+L) is
// causally independent of events outside its own domain, so all domains may
// execute that window in parallel. Cross-domain effects travel as
// timestamped messages that are buffered in per-domain outboxes during a
// window and inserted into the receiver's event heap at the barrier, sender
// by sender in domain-index order, each sender's in send order — so the
// interleaving of messages from different domains never depends on
// goroutine scheduling.
//
// Determinism: for a fixed domain count K the engine produces bit-identical
// results for any worker count, because each domain's events execute
// sequentially in (time, ord) order and the merge order is a pure function
// of what each domain sent. The worker count only decides how many windows
// run at once, and which goroutine runs which, never what a window
// computes.
//
// The engine keeps its own accounting on every run, in two planes kept
// apart by their accessors: deterministic counters (Domain.Stats,
// Engine.Epochs, Engine.Windows, Engine.Messages) and wall-clock timing
// (Domain.Wall, Engine.MergeNs), which depends on the host.
package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// maxDomains is the most domains an Engine may have: a claim word holds a
// domain index in 16 bits.
const maxDomains = 1<<16 - 1

// maxLookahead bounds the lookahead so window arithmetic (T + lookahead)
// can never overflow Time.
const maxLookahead = Time(1) << 61

// message is one pooled cross-domain event notice: fn runs on the receiving
// domain's scheduler at instant at.
type message struct {
	at  Time
	ord uint64 // keyedClass|key from PostKeyed, 0 from Post
	fn  Handler
}

// DomainStats is one domain's execution accounting, for telemetry. Every
// field is a function of the simulation alone — the same for any worker
// count — so deterministic artifacts may read it. Wall-clock figures live
// apart, in DomainWall.
type DomainStats struct {
	// Events is the total events the domain's scheduler has fired.
	Events uint64
	// MaxWindowEvents is the most events the domain fired in one window.
	MaxWindowEvents uint64
	// BarrierWaits counts epoch barriers the domain participated in.
	BarrierWaits uint64
	// MsgsOut and MsgsIn count cross-domain messages sent and received.
	MsgsOut uint64
	MsgsIn  uint64
	// HorizonLag is the running maximum, across every window executed so
	// far, of how far the domain's clock trailed the epoch frontier at the
	// end of a window (idle domains lag the most). A last-window-only value
	// is useless post-run — the final window usually drains every queue —
	// so the max is what diagnosis wants.
	HorizonLag Time
}

// DomainWall is one domain's wall-clock accounting. It depends on the host
// and the worker count, so it has an accessor of its own (Domain.Wall) and
// never enters DomainStats.
type DomainWall struct {
	// ExecNs is the time the domain spent executing its windows.
	ExecNs int64
	// WaitNs sums, over the epochs, the time from the end of the domain's
	// window to the epoch's barrier. Domains share workers, so this is how
	// early the domain finished, not how long a core idled: the worker that
	// ran the window may have spent that time running later domains'
	// windows of the same epoch.
	WaitNs int64
}

// Domain is one partition of the simulated world: a private scheduler plus
// the outboxes carrying its cross-domain sends. All objects assigned to a
// domain must schedule exclusively on its Scheduler; the only legal
// cross-domain interaction is Post.
type Domain struct {
	eng   *Engine
	idx   int
	sched *Scheduler

	out  [][]*message // out[t]: messages for domain t, in send order
	free []*message   // message pool (owner-only)

	// windowEnd is the exclusive end of the window the domain is currently
	// (or was last) allowed to execute; Post validates against it.
	windowEnd Time

	msgsOut      uint64
	msgsIn       uint64
	waits        uint64
	maxLag       Time
	maxWinEvents uint64

	// Wall clock, written by the worker that ran the window as it ends and
	// read by the coordinator after the barrier (the epoch's countdown
	// orders the two): doneAt is when the last window finished.
	execNs int64
	waitNs int64
	doneAt time.Time

	err error // window panic captured by the worker that ran the window
}

// Index reports the domain's stable index in [0, K).
func (d *Domain) Index() int { return d.idx }

// Scheduler returns the domain's private scheduler.
func (d *Domain) Scheduler() *Scheduler { return d.sched }

// Stats returns a snapshot of the domain's execution counters.
func (d *Domain) Stats() DomainStats {
	return DomainStats{
		Events:          d.sched.Fired(),
		MaxWindowEvents: d.maxWinEvents,
		BarrierWaits:    d.waits,
		MsgsOut:         d.msgsOut,
		MsgsIn:          d.msgsIn,
		HorizonLag:      d.maxLag,
	}
}

// Wall returns the domain's wall-clock accounting so far.
func (d *Domain) Wall() DomainWall { return DomainWall{ExecNs: d.execNs, WaitNs: d.waitNs} }

func (d *Domain) allocMsg() *message {
	if n := len(d.free); n > 0 {
		m := d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		return m
	}
	return &message{}
}

// Post schedules fn at absolute instant at on domain to. It must be called
// from within one of d's executing events (or before the engine runs), and
// the target instant must respect the lookahead contract: at >= the end of
// d's current window. netsim guarantees this structurally — every
// cross-domain interaction traverses a link whose propagation delay is at
// least the engine lookahead — so a violation is a model bug and panics.
func (d *Domain) Post(to *Domain, at Time, fn Handler) {
	if to == d {
		d.sched.At(at, fn)
		return
	}
	d.post(to, at, 0, fn)
}

// PostKeyed is Post for a keyed event: fn is inserted on domain to as
// Scheduler.AtKeyed(at, key, fn) would insert it, so where it fires among
// the events of its instant does not depend on which domain sent it or on
// the epoch it was merged in.
func (d *Domain) PostKeyed(to *Domain, at Time, key uint64, fn Handler) {
	if to == d {
		d.sched.AtKeyed(at, key, fn)
		return
	}
	d.post(to, at, keyedClass|key&ordMask, fn)
}

// post queues fn for another domain; ord is 0 for a normal event.
func (d *Domain) post(to *Domain, at Time, ord uint64, fn Handler) {
	if at < d.windowEnd {
		panic(fmt.Sprintf(
			"sim: cross-domain post from domain %d to %d at %v violates lookahead window end %v",
			d.idx, to.idx, at, d.windowEnd))
	}
	m := d.allocMsg()
	m.at = at
	m.ord = ord
	m.fn = fn
	d.out[to.idx] = append(d.out[to.idx], m)
	d.msgsOut++
}

// runWindow executes every local event strictly before end. windowEnd is
// published first so Post can validate the lookahead contract while the
// window's events run.
func (d *Domain) runWindow(end Time) {
	d.windowEnd = end
	s := d.sched
	for len(s.queue) > 0 && s.queue[0].at < end {
		s.Step()
	}
	if lag := end - 1 - s.now; lag > d.maxLag {
		d.maxLag = lag
	}
	d.waits++
}

// runTimed is runWindow as a worker runs it: it counts the
// window's events, reads the clock before and after, and captures a panic
// (a model bug such as a lookahead violation) as the domain's error.
func (d *Domain) runTimed(end Time) {
	fired := d.sched.Fired()
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			d.err = fmt.Errorf("sim: domain %d window panic: %v", d.idx, r)
		}
		d.doneAt = time.Now()
		d.execNs += d.doneAt.Sub(start).Nanoseconds()
		if n := d.sched.Fired() - fired; n > d.maxWinEvents {
			d.maxWinEvents = n
		}
	}()
	d.runWindow(end)
}

// WindowStats summarizes the widths of the epoch windows run so far, in
// simulated time.
type WindowStats struct {
	Min, Max Time
	Mean     float64
}

// Engine drives K domains through conservative epochs.
type Engine struct {
	domains   []*Domain
	lookahead Time
	epochs    uint64
	stopped   atomic.Bool

	// Deterministic window and message accounting.
	widthMin, widthMax Time
	widthSum           uint64
	msgs               []uint64 // msgs[from*K+to]: messages merged from domain from into to

	mergeNs int64 // wall clock spent between barriers (merge + next window)

	observers []observer
}

// observer is one Observe registration: fn is due at next, then every
// period after.
type observer struct {
	period, next Time
	fn           func(at Time)
}

// NewEngine builds an engine with k domains (1 <= k <= 65535) and
// the given lookahead. A lookahead of 0 is allowed at construction
// (topology builders derive it from link delays afterwards) but must be set
// before Run.
func NewEngine(k int, lookahead Time) *Engine {
	if k > maxDomains {
		panic(fmt.Sprintf("sim: %d domains exceed the engine's %d", k, maxDomains))
	}
	if k < 1 {
		k = 1
	}
	e := &Engine{msgs: make([]uint64, k*k)}
	e.SetLookahead(lookahead)
	e.domains = make([]*Domain, k)
	for i := range e.domains {
		d := &Domain{eng: e, idx: i, sched: NewScheduler(), out: make([][]*message, k)}
		e.domains[i] = d
	}
	return e
}

// NumDomains reports K.
func (e *Engine) NumDomains() int { return len(e.domains) }

// Domain returns the i-th domain.
func (e *Engine) Domain(i int) *Domain { return e.domains[i] }

// Lookahead reports the configured lookahead.
func (e *Engine) Lookahead() Time { return e.lookahead }

// SetLookahead sets the conservative window width: the minimum simulated
// delay of any cross-domain interaction. Call before Run.
func (e *Engine) SetLookahead(t Time) {
	if t > maxLookahead {
		t = maxLookahead
	}
	e.lookahead = t
}

// Epochs reports how many barrier epochs Run has executed so far.
func (e *Engine) Epochs() uint64 { return e.epochs }

// Windows reports the width statistics of the epoch windows run so far
// (zero before the first).
func (e *Engine) Windows() WindowStats {
	if e.epochs == 0 {
		return WindowStats{}
	}
	return WindowStats{Min: e.widthMin, Max: e.widthMax, Mean: float64(e.widthSum) / float64(e.epochs)}
}

// Messages reports how many cross-domain messages from domain from have
// been merged into domain to.
func (e *Engine) Messages(from, to int) uint64 { return e.msgs[from*len(e.domains)+to] }

// MergeNs reports the wall clock the coordinator has spent between
// barriers: merging outboxes and deriving the next window. Like
// Domain.Wall it is host-dependent.
func (e *Engine) MergeNs() int64 { return e.mergeNs }

// Stop halts a running engine at the next barrier. Safe to call from any
// goroutine (e.g. a domain event deciding to end the run).
func (e *Engine) Stop() { e.stopped.Store(true) }

// Observe registers fn to run on the coordinator between epochs, once per
// period of simulated time, first one period past the reference clock. The
// call for instant at comes at the first barrier by which every event at or
// before at has fired in every domain; the epoch window that crossed at may
// have fired later events too, less than one lookahead past at. What fn
// reads there is the same for every worker count, and no domain runs an
// event meanwhile, so fn may read the state of every domain; it receives
// at. Several due instants fire back to back when one epoch gap spans them,
// and those up to the horizon fire before Run returns. Observing schedules
// no event, so a simulation fn only reads is the same with or without it.
// Call before Run, not from an event.
func (e *Engine) Observe(period Time, fn func(at Time)) {
	period = max(period, 1)
	e.observers = append(e.observers, observer{period: period, next: e.Now() + period, fn: fn})
}

// observe runs every observation due before frontier, the time before
// which every event has fired and at or after which none has.
func (e *Engine) observe(frontier Time) {
	for i := range e.observers {
		o := &e.observers[i]
		for o.next < frontier {
			o.fn(o.next)
			o.next += o.period
		}
	}
}

// Now reports the reference clock: domain 0's current time. Between Run
// calls every domain clock agrees (all are advanced to the horizon).
func (e *Engine) Now() Time { return e.domains[0].sched.Now() }

// mergeOutboxes drains every domain's outboxes into the receivers' queues:
// for each receiving domain, sender by sender in domain-index order, each
// outbox in send order. The receiver's heap orders by time first, so its
// same-instant normal events fire in (sender domain index, send order)
// regardless of which worker ran which window when; a keyed message
// (PostKeyed) carries its own place in its instant and takes it whatever
// the insertion order. Messages recycle to their sender's pool — safe here
// because merging happens only between epochs, when no domain runs.
func (e *Engine) mergeOutboxes() {
	for ti, target := range e.domains {
		for _, d := range e.domains {
			box := d.out[ti]
			if len(box) == 0 {
				continue
			}
			e.msgs[d.idx*len(e.domains)+ti] += uint64(len(box))
			for i, m := range box {
				if m.ord != 0 {
					target.sched.insert(m.at, m.ord, m.fn)
				} else {
					target.sched.At(m.at, m.fn)
				}
				m.fn = nil
				d.free = append(d.free, m)
				box[i] = nil
			}
			target.msgsIn += uint64(len(box))
			d.out[ti] = box[:0]
		}
	}
}

// minNextEvent reports the earliest pending event time across all domains.
func (e *Engine) minNextEvent() (Time, bool) {
	var min Time
	ok := false
	for _, d := range e.domains {
		if len(d.sched.queue) == 0 {
			continue
		}
		if at := d.sched.queue[0].at; !ok || at < min {
			min = at
			ok = true
		}
	}
	return min, ok
}

// Run executes events until every domain's clock passes horizon (events at
// exactly the horizon still fire), the queues drain, or Stop is called.
// workers, clamped to [1, K], is how many goroutines execute windows: the
// caller's and workers−1 helpers that live for this call. The results are
// identical for every workers value; only wall-clock time differs. A panic
// inside a window ends the run with an error naming the domain, whatever
// workers is.
func (e *Engine) Run(horizon Time, workers int) error {
	if e.lookahead <= 0 {
		return errors.New("sim: engine lookahead must be positive (derive it from cross-domain link delays)")
	}
	workers = min(max(workers, 1), len(e.domains))
	e.stopped.Store(false)
	if err := e.runEpochs(horizon, workers); err != nil {
		return err
	}
	for _, d := range e.domains {
		d.sched.advance(horizon)
	}
	return nil
}

// nextWindow derives the epoch window from the earliest pending event and
// the lookahead: start is that event's time, end (exclusive) is capped at
// horizon+1 so events at exactly the horizon still fire. ok is false when
// no event at or before the horizon remains.
func (e *Engine) nextWindow(horizon Time) (start, end Time, ok bool) {
	t, ok := e.minNextEvent()
	if !ok || t > horizon {
		return 0, 0, false
	}
	w := horizon + 1
	if e.lookahead < w-t {
		w = t + e.lookahead
	}
	return t, w, true
}

// runEpochs is the epoch loop: merge the previous epoch's outboxes, derive
// the next window, run every domain's window on the crew, wait at the
// barrier. The clock is read twice per domain window (in runTimed) and
// twice per epoch here: at the barrier, which ends every domain's wait and
// starts the merge, and once the next window is known.
func (e *Engine) runEpochs(horizon Time, workers int) error {
	c := newCrew(e, workers)
	defer c.disband()
	barrier := time.Now()
	for {
		if e.stopped.Load() {
			return ErrStopped
		}
		e.mergeOutboxes()
		t, w, ok := e.nextWindow(horizon)
		e.mergeNs += time.Since(barrier).Nanoseconds()
		if !ok {
			e.observe(horizon + 1)
			return nil
		}
		e.observe(t)
		c.runEpoch(w)
		barrier = time.Now()
		var err error
		for _, d := range e.domains {
			d.waitNs += barrier.Sub(d.doneAt).Nanoseconds()
			if err == nil {
				err = d.err
			}
			d.err = nil
		}
		if err != nil {
			return err
		}
		width := w - t
		if e.epochs == 0 || width < e.widthMin {
			e.widthMin = width
		}
		e.widthMax = max(e.widthMax, width)
		e.widthSum += uint64(width)
		e.epochs++
	}
}

// spinPolls bounds how long an idle worker polls for its next hand-off — a
// helper for the next epoch, the coordinator for the end of this one —
// before it parks. Every 64th poll yields the processor, so a poller on an
// oversubscribed host lets the worker it waits for run.
const spinPolls = 1 << 13

// crew is the worker set of one Run: the coordinator (Run's caller) and
// workers−1 helpers. Each epoch the coordinator publishes the window end
// and then one claim word in a single store: the epoch number in bits
// 32–63 and the unclaimed domains [lo, hi) in bits 16–31 and 0–15. A
// worker claims a window by a CAS on that word — the coordinator the lowest
// unclaimed index, helpers the highest — so a claim made with a finished
// epoch's word fails instead of running a domain of the next epoch against
// the old window end. Claiming from the two ends keeps most domains on the
// same worker from one epoch to the next, their state in that core's
// cache: the coordinator's run starts at domain 0, the core, which is
// usually the busiest domain and the one the merge it has just run fed
// most. The worker that finishes the epoch's last window counts pending
// down to zero and wakes the coordinator.
type crew struct {
	domains []*Domain
	claim   atomic.Uint64
	pending atomic.Int64 // windows of the current epoch not yet finished
	end     Time         // the current window end; written only between epochs
	epoch   uint32       // the coordinator's epoch number
	quit    atomic.Bool

	mu        sync.Mutex
	nextEpoch *sync.Cond // helpers park here between epochs
	epochDone *sync.Cond // the coordinator parks here until pending is zero
	helpers   sync.WaitGroup
}

// newCrew starts workers−1 helpers for e's domains.
func newCrew(e *Engine, workers int) *crew {
	c := &crew{domains: e.domains}
	c.nextEpoch = sync.NewCond(&c.mu)
	c.epochDone = sync.NewCond(&c.mu)
	c.helpers.Add(workers - 1)
	for range workers - 1 {
		go c.help()
	}
	return c
}

// runEpoch runs every domain's window [.., end) on the crew and returns
// once all have finished.
func (c *crew) runEpoch(end Time) {
	c.epoch++
	c.end = end
	c.pending.Store(int64(len(c.domains)))
	c.claim.Store(uint64(c.epoch)<<32 | uint64(len(c.domains)))
	c.wake(c.nextEpoch)
	c.work(c.epoch, false)
	c.await(func() bool { return c.pending.Load() == 0 }, c.epochDone)
}

// disband stops the helpers and waits for them to exit.
func (c *crew) disband() {
	c.quit.Store(true)
	c.wake(c.nextEpoch)
	c.helpers.Wait()
}

// help is a helper's loop: wait for an epoch it has not worked in, claim
// windows in it, repeat until the crew disbands.
func (c *crew) help() {
	defer c.helpers.Done()
	var seen uint32
	for {
		c.await(func() bool { return c.quit.Load() || uint32(c.claim.Load()>>32) != seen }, c.nextEpoch)
		if c.quit.Load() {
			return
		}
		seen = uint32(c.claim.Load() >> 32)
		c.work(seen, true)
	}
}

// work claims and runs windows of epoch, from the top end of the unclaimed
// range or the bottom, until none is left unclaimed or the epoch is over.
func (c *crew) work(epoch uint32, top bool) {
	for {
		w := c.claim.Load()
		lo, hi := int(uint16(w>>16)), int(uint16(w))
		if uint32(w>>32) != epoch || lo == hi {
			return
		}
		i, next := lo, w+1<<16
		if top {
			i, next = hi-1, w-1
		}
		if !c.claim.CompareAndSwap(w, next) {
			continue
		}
		c.domains[i].runTimed(c.end)
		if c.pending.Add(-1) == 0 {
			c.wake(c.epochDone)
		}
	}
}

// await returns once ready reports true: it polls up to spinPolls times,
// then parks on cond. Whoever makes ready true calls wake(cond) after.
func (c *crew) await(ready func() bool, cond *sync.Cond) {
	for i := 1; i <= spinPolls; i++ {
		if ready() {
			return
		}
		if i%64 == 0 {
			runtime.Gosched()
		}
	}
	c.mu.Lock()
	for !ready() {
		cond.Wait()
	}
	c.mu.Unlock()
}

// wake wakes every worker parked on cond. Taking the lock orders it after
// a parker's last check of its condition, so no wake-up is lost.
func (c *crew) wake(cond *sync.Cond) {
	c.mu.Lock()
	cond.Broadcast()
	c.mu.Unlock()
}

// RunFor executes events for d of simulated time past the reference clock.
func (e *Engine) RunFor(dur Time, workers int) error {
	return e.Run(e.Now()+dur, workers)
}
