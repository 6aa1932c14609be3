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
// results for any worker count, including the inline serial path, because
// each domain's events execute sequentially in (time, ord) order and the
// merge order is a pure function of what each domain sent. The worker count
// only decides which OS thread runs a window, never what the window computes.
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

// DomainStats is one domain's execution accounting, for telemetry.
type DomainStats struct {
	// Events is the total events the domain's scheduler has fired.
	Events uint64
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

// EngineProbe observes engine execution for the simulation profiler. All
// callbacks are invoked from the engine's coordinator goroutine (never from
// a domain worker), so implementations need no locking. The virtual-time
// arguments (window bounds, event counts, message counts) are deterministic
// for a fixed (topology, seed, Domains) configuration; the wall-clock
// nanosecond arguments are not and must never leak into deterministic
// artifacts.
type EngineProbe interface {
	// OnEpoch fires once per epoch, after the previous epoch's cross-domain
	// merge and before the epoch's windows run. start/end are the epoch
	// window bounds (end exclusive); mergeNs is the wall clock the merge
	// just consumed.
	OnEpoch(start, end Time, mergeNs int64)
	// OnCrossMessages fires during merge, once per non-empty (sender,
	// receiver) outbox: n messages from domain `from` are being delivered
	// into domain `to` this epoch.
	OnCrossMessages(from, to, n int)
	// OnDomainWindow fires once per domain per epoch, after the barrier:
	// the domain fired events events this window, spent execNs wall clock
	// executing them, and then waited waitNs at the barrier for the epoch's
	// slowest domain (0 on the serial path, which has no barrier).
	OnDomainWindow(domain int, events uint64, execNs, waitNs int64)
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

	msgsOut uint64
	msgsIn  uint64
	waits   uint64
	maxLag  Time

	// Probe scratch, written by runWindow (or the timing wrapper around it)
	// and read by the coordinator after the barrier; the WaitGroup provides
	// the happens-before edge on the parallel path.
	lastEvents uint64
	lastExecNs int64
	doneAtNs   int64

	err error // window panic captured by the worker goroutine
}

// Index reports the domain's stable index in [0, K).
func (d *Domain) Index() int { return d.idx }

// Scheduler returns the domain's private scheduler.
func (d *Domain) Scheduler() *Scheduler { return d.sched }

// Stats returns a snapshot of the domain's execution counters.
func (d *Domain) Stats() DomainStats {
	return DomainStats{
		Events:       d.sched.Fired(),
		BarrierWaits: d.waits,
		MsgsOut:      d.msgsOut,
		MsgsIn:       d.msgsIn,
		HorizonLag:   d.maxLag,
	}
}

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

// runWindowTimed is runWindow plus the probe's wall-clock accounting:
// events fired, execute nanoseconds, and the instant the domain finished
// (the barrier-wait baseline). Only called when a probe is attached.
func (d *Domain) runWindowTimed(end Time) {
	fired := d.sched.Fired()
	start := time.Now()
	d.runWindow(end)
	d.lastExecNs = time.Since(start).Nanoseconds()
	d.lastEvents = d.sched.Fired() - fired
	d.doneAtNs = time.Now().UnixNano()
}

// Engine drives K domains through conservative epochs.
type Engine struct {
	domains   []*Domain
	lookahead Time
	epochs    uint64
	stopped   atomic.Bool
	probe     EngineProbe // nil unless a profiler is attached
}

// NewEngine builds an engine with k domains (k >= 1) and the given
// lookahead. A lookahead of 0 is allowed at construction (topology builders
// derive it from link delays afterwards) but must be set before Run.
func NewEngine(k int, lookahead Time) *Engine {
	if k < 1 {
		k = 1
	}
	e := &Engine{}
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

// SetProbe attaches (or, with nil, detaches) an execution probe. Call
// before Run; a nil probe keeps every hot path exactly as it was (no
// timestamping, no callbacks).
func (e *Engine) SetProbe(p EngineProbe) { e.probe = p }

// Probe reports the attached probe (nil when none).
func (e *Engine) Probe() EngineProbe { return e.probe }

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
			if e.probe != nil {
				e.probe.OnCrossMessages(d.idx, ti, len(box))
			}
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
// workers bounds concurrent window execution: <= 1 runs every window inline
// on the caller's goroutine (the engine-overhead baseline), larger values
// use one goroutine per domain gated by a worker semaphore. The results are
// identical for every workers value; only wall-clock time differs.
func (e *Engine) Run(horizon Time, workers int) error {
	if e.lookahead <= 0 {
		return errors.New("sim: engine lookahead must be positive (derive it from cross-domain link delays)")
	}
	if workers > len(e.domains) {
		workers = len(e.domains)
	}
	e.stopped.Store(false)
	if workers > 1 {
		// The goroutine plumbing lives in its own frame so the serial path
		// (and the steady-state fast path it guards) stays allocation-free.
		if err := e.runParallel(horizon, workers); err != nil {
			return err
		}
	} else {
		for {
			if e.stopped.Load() {
				return ErrStopped
			}
			w, ok := e.stepEpochHeader(horizon)
			if !ok {
				break
			}
			if e.probe != nil {
				for _, d := range e.domains {
					d.runWindowTimed(w)
				}
				for _, d := range e.domains {
					e.probe.OnDomainWindow(d.idx, d.lastEvents, d.lastExecNs, 0)
				}
			} else {
				for _, d := range e.domains {
					d.runWindow(w)
				}
			}
			e.epochs++
		}
	}
	for _, d := range e.domains {
		d.sched.advance(horizon)
	}
	return nil
}

// nextWindow merges nothing; it derives the epoch window from the earliest
// pending event and the lookahead: start is that event's time, end
// (exclusive) is capped at horizon+1 so events at exactly the horizon still
// fire. ok is false when no event at or before the horizon remains.
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

// stepEpochHeader runs the between-windows part of one epoch: merge the
// previous epoch's outboxes and derive the next window. With a probe
// attached the merge is timed and the probe's OnEpoch fires with the
// window bounds. Shared by the serial and parallel epoch loops.
func (e *Engine) stepEpochHeader(horizon Time) (Time, bool) {
	var mergeNs int64
	if e.probe != nil {
		start := time.Now()
		e.mergeOutboxes()
		mergeNs = time.Since(start).Nanoseconds()
	} else {
		e.mergeOutboxes()
	}
	t, w, ok := e.nextWindow(horizon)
	if !ok {
		return 0, false
	}
	if e.probe != nil {
		e.probe.OnEpoch(t, w, mergeNs)
	}
	return w, true
}

// runParallel is the epoch loop with one persistent goroutine per domain,
// gated by a semaphore of `workers` execution slots. Worker panics (model
// bugs like cross-domain scheduling) are captured and surfaced as errors
// after the barrier.
func (e *Engine) runParallel(horizon Time, workers int) error {
	k := len(e.domains)
	var wg sync.WaitGroup
	windowCh := make([]chan Time, k)
	done := make(chan struct{})
	defer close(done)
	sem := make(chan struct{}, workers)
	probed := e.probe != nil
	for i := range e.domains {
		windowCh[i] = make(chan Time, 1)
		go func(d *Domain, win <-chan Time) {
			for {
				select {
				case <-done:
					return
				case w := <-win:
					sem <- struct{}{}
					func() {
						defer func() {
							if r := recover(); r != nil {
								d.err = fmt.Errorf("sim: domain %d window panic: %v", d.idx, r)
							}
						}()
						if probed {
							d.runWindowTimed(w)
						} else {
							d.runWindow(w)
						}
					}()
					<-sem
					wg.Done()
				}
			}
		}(e.domains[i], windowCh[i])
	}
	for {
		if e.stopped.Load() {
			return ErrStopped
		}
		w, ok := e.stepEpochHeader(horizon)
		if !ok {
			return nil
		}
		wg.Add(k)
		for i := range windowCh {
			windowCh[i] <- w
		}
		wg.Wait()
		if probed {
			// Barrier accounting: each domain's wait is the gap between
			// finishing its window and the barrier releasing (now). The
			// slowest domain — the straggler — waits ~0.
			barrier := time.Now().UnixNano()
			for _, d := range e.domains {
				waitNs := barrier - d.doneAtNs
				if waitNs < 0 {
					waitNs = 0
				}
				e.probe.OnDomainWindow(d.idx, d.lastEvents, d.lastExecNs, waitNs)
			}
		}
		for _, d := range e.domains {
			if d.err != nil {
				err := d.err
				d.err = nil
				return err
			}
		}
		e.epochs++
	}
}

// RunFor executes events for d of simulated time past the reference clock.
func (e *Engine) RunFor(dur Time, workers int) error {
	return e.Run(e.Now()+dur, workers)
}
