// Package trace implements span-based causal packet tracing for the
// simulated testbed. A packet acquires a trace context at its origin (flood
// engine, benign client, C2 command) when deterministic head-based sampling
// selects its flow; every hop then records a child span with sim-time
// bounds, and discards terminate the chain with a cause tag. The tracer
// feeds per-hop and end-to-end latency histograms into a telemetry.Registry
// and retains finished spans in a bounded ring for offline analysis
// (cmd/tracetool).
//
// Hot-path discipline: an unsampled packet carries the zero Context, whose
// methods are allocation-free no-ops, and the sampling decision itself is a
// pure hash with no map lookups or allocations. Span records are pooled.
// All IDs are sequential in event order, so a fixed seed produces
// byte-identical trace output.
package trace

import (
	"math"
	"sync"

	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
)

// latencyBucketsUs spans 1 µs to 1 s, the range between a switch hop and a
// queued-behind-a-flood delivery (values are microseconds).
var latencyBucketsUs = []float64{
	1, 5, 10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000,
}

// Config parameterizes a Tracer.
type Config struct {
	// Seed perturbs the flow-sampling hash so different runs can sample
	// different flow subsets at the same rate.
	Seed int64
	// SampleRate is the fraction of flows traced, in [0, 1]. The decision
	// is per-flow (hash of the 5-tuple), so every packet of a sampled flow
	// is traced. Rates >= 1 trace everything; 0 disables sampling.
	SampleRate float64
	// SpanCapacity bounds the finished-span ring; the oldest spans are
	// evicted on overflow (default 65536).
	SpanCapacity int
	// Classify maps a flow to its kind at origin time. Nil leaves flows
	// KindUnknown; explicit OriginKind calls bypass it either way.
	Classify func(f Flow) Kind
	// Registry, when non-nil, receives the tracer's counters and latency
	// histograms.
	Registry *telemetry.Registry
}

// DefaultSpanCapacity is the finished-span ring size when Config leaves it 0.
const DefaultSpanCapacity = 65536

// Tracer owns sampling, span lifecycle, metrics, and the finished-span
// ring. All methods are safe for concurrent use and nil-receiver safe.
type Tracer struct {
	seed      uint64
	threshold uint64
	sampleAll bool
	classify  func(Flow) Kind

	mu        sync.Mutex
	nextTrace uint64
	nextSpan  uint64
	active    map[SpanID]*Span
	free      []*Span
	ring      []Span
	finished  uint64 // total spans ever finished; ring index = finished % cap

	spans  telemetry.Counter
	traces [numKinds]telemetry.Counter
	drops  [numDropCauses]telemetry.Counter
	e2e    [numKinds]*telemetry.Histogram
	hops   map[string]*telemetry.Histogram
	reg    *telemetry.Registry
}

// New builds a Tracer and, when cfg.Registry is set, registers its metrics:
// trace_spans_total, trace_traces_total{kind}, trace_drops_total{cause}
// (bar the causes left to ExportDropCause), trace_end_to_end_us{kind} and
// (lazily, per hop name) trace_hop_latency_us.
func New(cfg Config) *Tracer {
	capacity := cfg.SpanCapacity
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	tr := &Tracer{
		seed:      uint64(cfg.Seed),
		classify:  cfg.Classify,
		active:    make(map[SpanID]*Span),
		ring:      make([]Span, 0, capacity),
		hops:      make(map[string]*telemetry.Histogram),
		reg:       cfg.Registry,
		sampleAll: cfg.SampleRate >= 1,
	}
	if cfg.SampleRate > 0 && cfg.SampleRate < 1 {
		tr.threshold = uint64(cfg.SampleRate * float64(math.MaxUint64))
	}
	for k := 0; k < numKinds; k++ {
		kind := telemetry.L("kind", Kind(k).String())
		if tr.reg != nil {
			tr.reg.RegisterCounter(&tr.traces[k], "trace_traces_total", kind)
			tr.e2e[k] = tr.reg.NewHistogram("trace_end_to_end_us", latencyBucketsUs, kind)
		} else {
			tr.e2e[k] = telemetry.NewHistogram(latencyBucketsUs)
		}
	}
	if tr.reg != nil {
		tr.reg.RegisterCounter(&tr.spans, "trace_spans_total")
		for c := DropCause(1); c < numDropCauses; c++ {
			if c != DropARPSuppressed {
				tr.ExportDropCause(c)
			}
		}
	}
	return tr
}

// ExportDropCause registers the cause's trace_drops_total series. New does
// it for every cause any network can hit. DropARPSuppressed needs an ARP
// directory, and the network that installs one exports it then: recorded
// snapshot hashes and benchmark digests of networks without one contain
// exactly the lines they were recorded with. Safe on a nil Tracer.
func (tr *Tracer) ExportDropCause(c DropCause) {
	if tr != nil && tr.reg != nil {
		tr.reg.RegisterCounter(&tr.drops[c], "trace_drops_total", telemetry.L("cause", c.String()))
	}
}

// splitmix is the SplitMix64 finalizer: a fast, well-distributed 64-bit
// mixer used for the sampling hash.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// flowHash folds the 5-tuple and seed into one mixed 64-bit value. Pure
// function of its inputs: the sampling verdict for a flow is identical
// across runs with the same seed.
func flowHash(f Flow, seed uint64) uint64 {
	a := uint64(f.Src)<<32 | uint64(f.Dst)
	b := uint64(f.SrcPort)<<24 | uint64(f.DstPort)<<8 | uint64(f.Proto)
	return splitmix(splitmix(a^seed) ^ b)
}

// sampleFlow is the head-based sampling decision: allocation-free, no locks.
func (tr *Tracer) sampleFlow(f Flow) bool {
	if tr.sampleAll {
		return true
	}
	if tr.threshold == 0 {
		return false
	}
	return flowHash(f, tr.seed) < tr.threshold
}

// Origin starts a new trace for f when sampling selects it, classifying
// the flow via Config.Classify. The returned context is the origin span;
// unsampled flows get the zero Context (all methods no-ops, 0 allocs).
func (tr *Tracer) Origin(t sim.Time, f Flow, name, actor string) Context {
	if tr == nil || !tr.sampleFlow(f) {
		return Context{}
	}
	kind := KindUnknown
	if tr.classify != nil {
		kind = tr.classify(f)
	}
	return tr.origin(t, f, kind, name, actor)
}

// OriginKind is Origin with the kind fixed by the caller — the flood
// engines know their packets are attack traffic regardless of any
// classifier.
func (tr *Tracer) OriginKind(t sim.Time, f Flow, kind Kind, name, actor string) Context {
	if tr == nil || !tr.sampleFlow(f) {
		return Context{}
	}
	return tr.origin(t, f, kind, name, actor)
}

func (tr *Tracer) origin(t sim.Time, f Flow, kind Kind, name, actor string) Context {
	tr.mu.Lock()
	tr.nextTrace++
	id := TraceID(tr.nextTrace)
	sp := tr.acquire()
	*sp = Span{Trace: id, ID: tr.newSpanID(), Name: name, Actor: actor, Kind: kind, Flow: f, Start: t}
	tr.active[sp.ID] = sp
	sid := sp.ID
	tr.mu.Unlock()
	tr.traces[kind%numKinds].Inc()
	tr.spans.Inc()
	return Context{tr: tr, Trace: id, Span: sid, Root: t, Kind: kind}
}

// newSpanID must be called with mu held.
func (tr *Tracer) newSpanID() SpanID {
	tr.nextSpan++
	return SpanID(tr.nextSpan)
}

// acquire must be called with mu held.
func (tr *Tracer) acquire() *Span {
	if n := len(tr.free); n > 0 {
		sp := tr.free[n-1]
		tr.free = tr.free[:n-1]
		return sp
	}
	return new(Span)
}

func (tr *Tracer) child(c Context, t sim.Time, name, actor string) Context {
	tr.mu.Lock()
	sp := tr.acquire()
	*sp = Span{Trace: c.Trace, ID: tr.newSpanID(), Parent: c.Span, Name: name, Actor: actor, Kind: c.Kind, Start: t}
	tr.active[sp.ID] = sp
	sid := sp.ID
	tr.mu.Unlock()
	tr.spans.Inc()
	return Context{tr: tr, Trace: c.Trace, Span: sid, Root: c.Root, Kind: c.Kind}
}

func (tr *Tracer) finish(c Context, t sim.Time, tag string, cause DropCause, terminal bool) {
	tr.mu.Lock()
	sp, ok := tr.active[c.Span]
	if !ok {
		// Already finished (e.g. the duplicate delivery of a dup-impaired
		// frame): finishing twice is a deliberate no-op.
		tr.mu.Unlock()
		return
	}
	delete(tr.active, c.Span)
	sp.End = t
	sp.Tag = tag
	sp.Drop = cause
	start, name := sp.Start, sp.Name
	if len(tr.ring) < cap(tr.ring) {
		tr.ring = append(tr.ring, *sp)
	} else {
		tr.ring[int(tr.finished%uint64(cap(tr.ring)))] = *sp
	}
	tr.finished++
	tr.free = append(tr.free, sp)
	hist := tr.hops[name]
	if hist == nil {
		if tr.reg != nil {
			hist = tr.reg.NewHistogram("trace_hop_latency_us", latencyBucketsUs, telemetry.L("hop", name))
		} else {
			hist = telemetry.NewHistogram(latencyBucketsUs)
		}
		tr.hops[name] = hist
	}
	tr.mu.Unlock()
	// Observe whole microseconds (integer division BEFORE the float
	// conversion): integral values this small are exact in float64, so the
	// histogram sums are commutative and snapshots stay byte-identical no
	// matter which order parallel domains interleave their observations.
	hist.Observe(float64((t - start) / 1e3))
	if cause != DropNone {
		tr.drops[cause%numDropCauses].Inc()
	} else if terminal {
		tr.e2e[c.Kind%numKinds].Observe(float64((t - c.Root) / 1e3))
	}
}

// Spans returns the finished spans in finish order, oldest first. The
// result is a copy.
func (tr *Tracer) Spans() []Span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]Span, len(tr.ring))
	if len(tr.ring) < cap(tr.ring) {
		copy(out, tr.ring)
		return out
	}
	head := int(tr.finished % uint64(cap(tr.ring)))
	n := copy(out, tr.ring[head:])
	copy(out[n:], tr.ring[:head])
	return out
}

// Evicted reports how many finished spans the ring has discarded.
func (tr *Tracer) Evicted() uint64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.ring) < cap(tr.ring) {
		return 0
	}
	return tr.finished - uint64(len(tr.ring))
}

// Active reports spans started but not yet finished (should drain to the
// in-flight set at quiesce).
func (tr *Tracer) Active() int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.active)
}

// Context is a packet's position in its trace: the current span plus the
// trace's identity, origin time and kind. The zero Context is valid and
// means "not sampled": every method is an allocation-free no-op. Contexts
// are values — copy them freely alongside the frame they describe.
type Context struct {
	tr    *Tracer
	Trace TraceID
	Span  SpanID
	Root  sim.Time // origin span start, for end-to-end latency
	Kind  Kind
}

// Sampled reports whether the context belongs to a live trace.
func (c Context) Sampled() bool { return c.tr != nil }

// Start opens a child span under c and returns its context. The parent
// may already be finished (hops hand off before the next one starts).
func (c Context) Start(t sim.Time, name, actor string) Context {
	if c.tr == nil {
		return Context{}
	}
	return c.tr.child(c, t, name, actor)
}

// Finish closes the span at t. Finishing a span twice (or finishing the
// zero Context) is a no-op.
func (c Context) Finish(t sim.Time) {
	if c.tr != nil {
		c.tr.finish(c, t, "", DropNone, false)
	}
}

// FinishTag closes the span with an annotation (e.g. the IDS verdict).
func (c Context) FinishTag(t sim.Time, tag string) {
	if c.tr != nil {
		c.tr.finish(c, t, tag, DropNone, false)
	}
}

// FinishTerminal closes the span and records the trace's end-to-end
// latency (origin start → t) in trace_end_to_end_us{kind}. The delivery
// point (netstack dispatch to a socket) calls this.
func (c Context) FinishTerminal(t sim.Time) {
	if c.tr != nil {
		c.tr.finish(c, t, "", DropNone, true)
	}
}

// Drop closes the span as a discard with the given cause, counted in
// trace_drops_total{cause}.
func (c Context) Drop(t sim.Time, cause DropCause) {
	if c.tr != nil {
		c.tr.finish(c, t, "", cause, false)
	}
}
