// Conservative parallel discrete-event engine (PDES).
//
// The Engine partitions a simulation into K Domains, each owning a private
// Scheduler that advances on its own goroutine. Synchronization uses the
// classic conservative-lookahead rule executed as synchronous epochs: with T
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
// run at once, never what a window computes.
//
// The engine keeps its own accounting on every run, in two planes kept
// apart by their accessors: deterministic counters (Domain.Stats,
// Engine.Epochs, Engine.Windows, Engine.Messages) and wall-clock timing
// (Domain.Wall, Engine.MergeNs), which depends on the host.
package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

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

// DomainWall is one domain's wall-clock accounting: the time it spent
// executing its windows and the time it then waited at the barrier for the
// epoch's slowest domain. It depends on the host and the worker count, so
// it has an accessor of its own (Domain.Wall) and never enters DomainStats.
type DomainWall struct {
	ExecNs int64
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

	// Wall clock, written by the domain's goroutine as a window ends and
	// read by the coordinator after the barrier (the WaitGroup orders the
	// two): doneAt is when the last window finished.
	execNs int64
	waitNs int64
	doneAt time.Time

	err error // window panic captured by the worker goroutine
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

// runTimed is runWindow as the domain's goroutine runs it: it counts the
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

// serve runs the windows the coordinator sends on win, one at a time, each
// holding one of the engine's execution slots, until done closes.
func (d *Domain) serve(win <-chan Time, done <-chan struct{}, slots chan struct{}, wg *sync.WaitGroup) {
	for {
		select {
		case <-done:
			return
		case w := <-win:
			slots <- struct{}{}
			d.runTimed(w)
			<-slots
			wg.Done()
		}
	}
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
}

// NewEngine builds an engine with k domains (k >= 1) and the given
// lookahead. A lookahead of 0 is allowed at construction (topology builders
// derive it from link delays afterwards) but must be set before Run.
func NewEngine(k int, lookahead Time) *Engine {
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
// Every domain runs its windows on a goroutine of its own; workers, clamped
// to [1, K], bounds how many execute at once. The results are identical for
// every workers value; only wall-clock time differs. A panic inside a
// window ends the run with an error naming the domain, whatever workers is.
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
// the next window, hand it to every domain's goroutine, wait at the
// barrier. The clock is read twice per domain window (in runTimed) and
// twice per epoch here: at the barrier, which ends every domain's wait and
// starts the merge, and once the next window is known.
func (e *Engine) runEpochs(horizon Time, workers int) error {
	k := len(e.domains)
	var wg, running sync.WaitGroup
	windowCh := make([]chan Time, k)
	done := make(chan struct{})
	slots := make(chan struct{}, workers)
	running.Add(k)
	for i, d := range e.domains {
		windowCh[i] = make(chan Time, 1)
		go func() {
			defer running.Done()
			d.serve(windowCh[i], done, slots, &wg)
		}()
	}
	// Run returns only once every domain goroutine has exited.
	defer running.Wait()
	defer close(done)
	barrier := time.Now()
	for {
		if e.stopped.Load() {
			return ErrStopped
		}
		e.mergeOutboxes()
		t, w, ok := e.nextWindow(horizon)
		e.mergeNs += time.Since(barrier).Nanoseconds()
		if !ok {
			return nil
		}
		wg.Add(k)
		for _, ch := range windowCh {
			ch <- w
		}
		wg.Wait()
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

// RunFor executes events for d of simulated time past the reference clock.
func (e *Engine) RunFor(dur Time, workers int) error {
	return e.Run(e.Now()+dur, workers)
}
