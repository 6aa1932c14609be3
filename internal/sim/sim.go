// Package sim provides the discrete-event simulation engine that underpins
// the DDoShield-IoT testbed. It plays the role NS-3's core module plays in
// the paper: a virtual clock, an ordered event queue, and deterministic
// pseudo-random number streams so that every experiment is reproducible
// bit-for-bit from its seed.
package sim

import (
	"errors"
	"fmt"
	"time"
)

// Time is an instant on the simulated clock, expressed as nanoseconds since
// the beginning of the simulation. It is distinct from wall-clock time: a
// ten-minute simulated run (the paper's dataset-generation phase) typically
// executes in seconds of real time.
type Time int64

// Common simulated-time unit anchors, mirroring time.Duration's constants.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
)

// Duration returns the simulated instant as a time.Duration offset from the
// simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the simulated instant as fractional seconds since the
// simulation epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add offsets the instant by a real-duration amount of simulated time.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// String renders the instant in time.Duration notation (e.g. "1.5s").
func (t Time) String() string { return time.Duration(t).String() }

// FromDuration converts a duration-since-epoch into a simulated instant.
func FromDuration(d time.Duration) Time { return Time(d) }

// Handler is a callback scheduled to run at a simulated instant.
type Handler func()

// node is a pooled heap entry. Nodes are recycled through the scheduler's
// free list the moment they fire or are cancelled; the id generation counter
// is bumped on every recycle so stale Event handles can detect that the node
// they point at no longer belongs to them.
type node struct {
	s   *Scheduler
	at  Time
	ord uint64 // same-instant order: class in the top two bits, see keyedClass
	id  uint64 // generation; incremented when the node is released
	idx int    // heap index; -1 while on the free list
	fn  Handler
}

// Events of one instant fire in ord order. The top two bits of ord are the
// event's class, the other 62 its place within the class: the scheduling
// sequence number for normal and late events, the caller's key for keyed
// ones.
const (
	keyedClass uint64 = 1 << 62 // AtKeyed: after every normal event, by key
	lateClass  uint64 = 2 << 62 // At(now) once now's keyed events have begun
	ordMask           = keyedClass - 1
)

// Event is a by-value handle to a scheduled callback. The zero Event is
// inert: Cancel and the accessors are no-ops on it. Handles stay safe after
// the event fires or is cancelled — the underlying pooled node carries a
// generation counter, so a stale handle can never cancel an unrelated event
// that recycled the same node.
//
// Events are ordered by firing time; events scheduled for the same instant
// fire in scheduling order (FIFO), keyed events (AtKeyed) after them in key
// order, which keeps the simulation deterministic.
type Event struct {
	n         *node
	id        uint64
	at        Time
	cancelled bool
}

// At reports the instant the event was scheduled to fire.
func (e *Event) At() Time { return e.at }

// IsZero reports whether the handle is the zero Event (never scheduled).
func (e *Event) IsZero() bool { return e.n == nil }

// Pending reports whether the event is still waiting to fire: it was
// scheduled, has not fired, and was not cancelled.
func (e *Event) Pending() bool { return e.n != nil && e.n.id == e.id }

// Cancelled reports whether Cancel was called through this handle before the
// event fired.
func (e *Event) Cancelled() bool { return e.cancelled }

// Cancel prevents a pending event from firing and removes it from the event
// queue immediately (no tombstone is left behind — long-lived tickers and
// supervisor timers no longer bloat the queue). Cancelling an event that has
// already fired (or was already cancelled) is a no-op.
func (e *Event) Cancel() {
	if e.n == nil || e.cancelled || e.n.id != e.id {
		return
	}
	e.cancelled = true
	e.n.s.removeNode(e.n)
}

// Scheduler is the simulation kernel: it owns the virtual clock and the
// event queue — an intrusive, index-tracked binary min-heap over pooled
// event nodes, so steady-state schedule/fire cycles allocate nothing. A
// Scheduler is not safe for concurrent use; the entire simulated world runs
// on a single logical thread, exactly as an NS-3 simulation does.
type Scheduler struct {
	now     Time
	queue   []*node // binary min-heap ordered by (at, ord)
	free    []*node // recycled nodes
	seq     uint64
	tail    bool // the event running (or last fired) at now is keyed or late
	running bool
	fired   uint64
}

// NewScheduler returns a scheduler with the clock at the simulation epoch.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Len reports the number of pending (not yet fired, not cancelled) events.
// Cancelled events are removed from the queue eagerly, so this is O(1).
func (s *Scheduler) Len() int { return len(s.queue) }

// Fired reports the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// alloc takes a node from the free list, or mints one.
func (s *Scheduler) alloc() *node {
	if n := len(s.free); n > 0 {
		nd := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return nd
	}
	return &node{s: s, id: 1, idx: -1}
}

// release invalidates outstanding handles and recycles the node.
func (s *Scheduler) release(nd *node) {
	nd.id++
	nd.fn = nil
	nd.idx = -1
	s.free = append(s.free, nd)
}

// At schedules fn to run at the absolute simulated instant t. Scheduling in
// the past is an error that would break causality, so it is clamped to the
// current instant instead. Scheduled for the current instant from a keyed
// handler, fn fires after every keyed event of the instant, in scheduling
// order among such late events: what a frame delivery starts "now" runs once
// all of this instant's deliveries are in, however many there are.
func (s *Scheduler) At(t Time, fn Handler) Event {
	ord := s.seq
	s.seq++
	if t <= s.now {
		t = s.now
		if s.tail {
			ord |= lateClass
		}
	}
	return s.insert(t, ord, fn)
}

// AtKeyed schedules fn to run at instant t after every normal event
// scheduled for t, whenever those are scheduled, and among the keyed events
// of t in ascending key order, whatever order they were inserted in. Keys
// are 62 bits and must be unique within an instant (equal keys fire in an
// unspecified order). This is how same-instant order is made a property of
// the model rather than of the execution: netsim keys a frame delivery by
// (link index, direction, send sequence), so a serial run and a partitioned
// one — which inserts cross-domain deliveries at the epoch barrier, not at
// send time — process them identically.
func (s *Scheduler) AtKeyed(t Time, key uint64, fn Handler) Event {
	if t < s.now {
		t = s.now
	}
	return s.insert(t, keyedClass|key&ordMask, fn)
}

// insert pushes fn at (t, ord); t must not lie in the past.
func (s *Scheduler) insert(t Time, ord uint64, fn Handler) Event {
	nd := s.alloc()
	nd.at = t
	nd.ord = ord
	nd.fn = fn
	s.push(nd)
	return Event{n: nd, id: nd.id, at: t}
}

// After schedules fn to run d of simulated time from now.
func (s *Scheduler) After(d time.Duration, fn Handler) Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// Every schedules fn to run every interval of simulated time, starting one
// interval from now, until the returned Ticker is stopped.
func (s *Scheduler) Every(interval time.Duration, fn Handler) *Ticker {
	if interval <= 0 {
		interval = time.Nanosecond
	}
	t := &Ticker{s: s, interval: interval, fn: fn}
	t.schedule()
	return t
}

// Step fires the single earliest pending event and advances the clock to
// its instant. It reports false when no events remain.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	nd := s.popMin()
	s.now = nd.at
	s.tail = nd.ord >= keyedClass
	fn := nd.fn
	s.release(nd) // recycle before firing so fn can reuse the node
	s.fired++
	fn()
	return true
}

// Run executes events in order until the clock passes horizon or the queue
// drains. Events scheduled exactly at the horizon still fire.
func (s *Scheduler) Run(horizon Time) error {
	if s.running {
		return errors.New("scheduler already running")
	}
	s.running = true
	defer func() { s.running = false }()
	for len(s.queue) > 0 && s.queue[0].at <= horizon {
		s.Step()
	}
	// The horizon was reached (or the queue drained): advance the clock so
	// Now() reflects the full span that was simulated.
	s.advance(horizon)
	return nil
}

// advance moves an idle clock forward to t; no event of the new instant has
// fired, so it starts in its normal phase.
func (s *Scheduler) advance(t Time) {
	if s.now < t {
		s.now = t
		s.tail = false
	}
}

// RunFor executes events for d of simulated time from the current instant.
func (s *Scheduler) RunFor(d time.Duration) error {
	return s.Run(s.now.Add(d))
}

// Drain runs until the event queue is empty (no horizon). Useful in tests.
func (s *Scheduler) Drain() {
	for s.Step() {
	}
}

// --- intrusive binary min-heap over (at, ord) ---

func nodeLess(a, b *node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.ord < b.ord
}

func (s *Scheduler) push(nd *node) {
	nd.idx = len(s.queue)
	s.queue = append(s.queue, nd)
	s.siftUp(nd.idx)
}

func (s *Scheduler) popMin() *node {
	nd := s.queue[0]
	last := len(s.queue) - 1
	s.queue[0] = s.queue[last]
	s.queue[0].idx = 0
	s.queue[last] = nil
	s.queue = s.queue[:last]
	if last > 0 {
		s.siftDown(0)
	}
	return nd
}

// removeNode deletes an arbitrary pending node from the heap via its tracked
// index and recycles it.
func (s *Scheduler) removeNode(nd *node) {
	i := nd.idx
	last := len(s.queue) - 1
	if i < 0 || i > last || s.queue[i] != nd {
		return
	}
	if i != last {
		s.queue[i] = s.queue[last]
		s.queue[i].idx = i
	}
	s.queue[last] = nil
	s.queue = s.queue[:last]
	if i < last {
		// The displaced node may need to move either way.
		if !s.siftDown(i) {
			s.siftUp(i)
		}
	}
	s.release(nd)
}

func (s *Scheduler) siftUp(i int) {
	q := s.queue
	nd := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !nodeLess(nd, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].idx = i
		i = parent
	}
	q[i] = nd
	nd.idx = i
}

// siftDown restores the heap below i; it reports whether the node moved.
func (s *Scheduler) siftDown(i int) bool {
	q := s.queue
	nd := q[i]
	start := i
	n := len(q)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && nodeLess(q[right], q[left]) {
			child = right
		}
		if !nodeLess(q[child], nd) {
			break
		}
		q[i] = q[child]
		q[i].idx = i
		i = child
	}
	q[i] = nd
	nd.idx = i
	return i != start
}

// Ticker repeatedly fires a handler at a fixed simulated interval.
type Ticker struct {
	s        *Scheduler
	interval time.Duration
	fn       Handler
	tick     Handler // cached self-rescheduling closure (one alloc per ticker)
	pending  Event
	stopped  bool
	ticks    uint64
}

func (t *Ticker) schedule() {
	if t.tick == nil {
		t.tick = func() {
			if t.stopped {
				return
			}
			t.ticks++
			t.fn()
			if !t.stopped {
				t.schedule()
			}
		}
	}
	t.pending = t.s.After(t.interval, t.tick)
}

// Stop cancels all future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	t.pending.Cancel()
}

// Ticks reports how many times the ticker has fired.
func (t *Ticker) Ticks() uint64 { return t.ticks }

// String summarizes scheduler state, for debugging.
func (s *Scheduler) String() string {
	return fmt.Sprintf("sim.Scheduler{now=%s pending=%d fired=%d}", s.now, len(s.queue), s.fired)
}
