package telemetry

import (
	"sync"

	"ddoshield/internal/sim"
)

// Category classifies flight-recorder events by emitting subsystem.
type Category uint8

// Event categories.
const (
	CatNet Category = iota + 1
	CatTCP
	CatContainer
	CatSupervisor
	CatFault
	CatIDS
	CatSysmon
	CatExperiment
)

// String renders the category (used as the chrome-tracing "cat" field).
func (c Category) String() string {
	switch c {
	case CatNet:
		return "net"
	case CatTCP:
		return "tcp"
	case CatContainer:
		return "container"
	case CatSupervisor:
		return "supervisor"
	case CatFault:
		return "fault"
	case CatIDS:
		return "ids"
	case CatSysmon:
		return "sysmon"
	case CatExperiment:
		return "experiment"
	}
	return "other"
}

// TraceEvent is one flight-recorder entry: a named occurrence at a
// simulated instant, attributed to an actor (a NIC, link, container or
// detection unit). Name and Actor are expected to be pre-interned
// strings (static literals and names computed once at construction), so
// emitting allocates nothing.
type TraceEvent struct {
	// Seq is the global emission sequence number (0-based). It survives
	// ring eviction, so consumers can detect gaps.
	Seq uint64
	// Time is the simulated instant of the event.
	Time sim.Time
	// Cat is the emitting subsystem.
	Cat Category
	// Name identifies what happened ("queue-drop", "retransmit", "crash").
	Name string
	// Actor identifies the subject ("dev03/eth0", "tserver").
	Actor string
	// Value carries an event-specific magnitude (bytes dropped, restart
	// count, window verdict), 0 when unused.
	Value int64
}

// DefaultRecorderCapacity bounds the flight recorder when the caller
// passes no explicit capacity.
const DefaultRecorderCapacity = 16384

// Recorder is a bounded ring-buffer flight recorder. When the ring is
// full the oldest event is evicted — exactly the crash-dump discipline of
// an aircraft flight recorder: you always hold the most recent window of
// history at a fixed memory cost, however long the run.
//
// Emit is allocation-free and guarded by a mutex, so a live exporter on
// another goroutine can snapshot safely while the simulation runs. A nil
// *Recorder ignores Emit, letting subsystems record unconditionally.
type Recorder struct {
	mu   sync.Mutex
	buf  []TraceEvent
	next uint64 // total events emitted; buf slot = seq % cap
	// dropped counts ring wraparounds (events evicted before anyone read
	// them); register it as telemetry_recorder_dropped_total so exports
	// reveal when the retained window is shorter than the run.
	dropped Counter
}

// NewRecorder returns a recorder holding up to capacity events
// (DefaultRecorderCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{buf: make([]TraceEvent, 0, capacity)}
}

// Emit records one event, evicting the oldest when full. Safe on a nil
// recorder.
func (r *Recorder) Emit(t sim.Time, cat Category, name, actor string, value int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ev := TraceEvent{Seq: r.next, Time: t, Cat: cat, Name: name, Actor: actor, Value: value}
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[int(r.next%uint64(cap(r.buf)))] = ev
		r.dropped.Inc()
	}
	r.next++
	r.mu.Unlock()
}

// Emitted reports the total number of events ever emitted.
func (r *Recorder) Emitted() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Dropped returns the counter of events evicted by ring wraparound, for
// registration as telemetry_recorder_dropped_total. Nil on a nil recorder.
func (r *Recorder) Dropped() *Counter {
	if r == nil {
		return nil
	}
	return &r.dropped
}

// Len reports how many events the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Capacity reports the ring size.
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return cap(r.buf)
}

// Events returns the retained events oldest-first (ascending Seq, and
// therefore nondecreasing sim.Time, since emission follows the virtual
// clock).
func (r *Recorder) Events() []TraceEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceEvent, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	start := int(r.next % uint64(cap(r.buf)))
	out = append(out, r.buf[start:]...)
	return append(out, r.buf[:start]...)
}
