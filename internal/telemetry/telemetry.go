// Package telemetry is the testbed's unified observability plane: a
// virtual-clock-aware metrics registry (counters, gauges, histograms with
// fixed bucket layouts) plus a bounded flight recorder of trace events
// stamped with sim.Time. It replaces the scattered ad-hoc counters the
// subsystems grew organically — netsim NIC/link fields, sysmon sample
// slices, fault-injector maps — with one registry every exporter, table
// and benchmark reads from, the way `docker stats` and the NS-3 trace
// files back every figure in the paper.
//
// Design constraints, in order:
//
//  1. Hot-path increments are allocation-free (guarded by AllocsPerRun
//     benchmarks). Counters and gauges are single atomic words; histogram
//     observation is a linear scan over a fixed bucket layout.
//  2. Instruments are usable standalone: a zero telemetry.Counter works
//     without any registry, so netsim's per-NIC counters exist whether or
//     not anyone attached a registry. Attaching registers them by
//     reference — reads and exports always agree with Stats() adapters.
//  3. All registry methods are nil-receiver safe no-ops, so subsystems
//     wire telemetry unconditionally and pay nothing when it is off.
//  4. Export order is deterministic (sorted by name, then label string),
//     so two same-seed runs produce byte-identical snapshots.
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric: frames forwarded, drops,
// retransmits. The zero value is ready to use. Increments are a single
// atomic add, so counters embedded in hot-path structs (NIC, link
// direction) cost nothing beyond the arithmetic they replace and stay
// race-safe under the live HTTP exporter and `go test -race`.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, updated atomically: a
// histogram's running sum. The registry exports gauge metrics through
// RegisterGaugeFunc. The zero value is ready to use and reads 0.
type Gauge struct{ bits atomic.Uint64 }

// Add offsets the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value reports the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into a fixed cumulative bucket layout.
// Bucket bounds are upper bounds; an implicit +Inf bucket catches the
// rest. Observation is allocation-free: a linear scan over the (small,
// fixed) bound slice plus two atomic adds.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    Gauge           // CAS-accumulated sum of observed values
	count  atomic.Uint64
}

// NewHistogram builds a standalone histogram over the given upper bounds
// (which must be sorted ascending; they are copied).
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reports total observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Buckets returns the bucket upper bounds and their (non-cumulative)
// counts; the final pair is the +Inf bucket, reported as math.Inf(1).
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	bounds = make([]float64, len(h.counts))
	counts = make([]uint64, len(h.counts))
	copy(bounds, h.bounds)
	bounds[len(bounds)-1] = math.Inf(1)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// Label is one name=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// L is Label construction sugar: telemetry.L("nic", "tserver/eth0").
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates registered metric types.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String renders the kind in Prometheus TYPE notation.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// metric is one registry entry. Exactly one of the value sources is set.
type metric struct {
	name      string
	labelStr  string // rendered {k="v",...} form, "" when unlabeled
	kind      Kind
	counter   *Counter
	hist      *Histogram
	counterFn func() uint64
	gaugeFn   func() float64
}

// Registry holds named metrics for export. Registration is cheap but not
// hot-path; increments on the returned instruments are. A nil *Registry
// is safe: registration methods return standalone instruments and record
// nothing, so subsystems need no telemetry-enabled/disabled branches.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	index   map[string]int // name+labelStr -> metrics index
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

// renderLabels renders a sorted, escaped {k="v",...} string ("" if none).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// add registers m, replacing any previous metric with the same name and
// label set (idempotent re-registration, e.g. a re-attached network).
func (r *Registry) add(m metric) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := m.name + m.labelStr
	if i, dup := r.index[key]; dup {
		r.metrics[i] = m
		return
	}
	r.index[key] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// NewCounter registers and returns a counter. On a nil registry the
// counter is standalone but fully functional.
func (r *Registry) NewCounter(name string, labels ...Label) *Counter {
	c := &Counter{}
	r.RegisterCounter(c, name, labels...)
	return c
}

// RegisterCounter registers an externally owned counter — how netsim's
// embedded per-NIC counters join the registry without changing owners.
func (r *Registry) RegisterCounter(c *Counter, name string, labels ...Label) {
	r.add(metric{name: name, labelStr: renderLabels(labels), kind: KindCounter, counter: c})
}

// RenderLabels renders the sorted, escaped {k="v",...} label form once, for
// callers that register many metrics against the same entity. Rendering is
// the allocation-heavy part of registration; at fleet scale (16 counters per
// link, 5 per NIC) re-rendering identical labels dominated topology build.
func RenderLabels(labels ...Label) string { return renderLabels(labels) }

// RegisterCounterRendered registers an externally owned counter under a
// label string previously produced by RenderLabels — the bulk-registration
// fast path used by netsim's per-entity counter blocks.
func (r *Registry) RegisterCounterRendered(c *Counter, name, labelStr string) {
	r.add(metric{name: name, labelStr: labelStr, kind: KindCounter, counter: c})
}

// RegisterCounterFuncRendered is RegisterCounterFunc with a pre-rendered
// label string.
func (r *Registry) RegisterCounterFuncRendered(fn func() uint64, name, labelStr string) {
	r.add(metric{name: name, labelStr: labelStr, kind: KindCounter, counterFn: fn})
}

// RegisterCounterFunc registers a counter whose value is computed at
// export time (for pre-existing uint64 fields that cannot move).
func (r *Registry) RegisterCounterFunc(fn func() uint64, name string, labels ...Label) {
	r.add(metric{name: name, labelStr: renderLabels(labels), kind: KindCounter, counterFn: fn})
}

// RegisterGaugeFunc registers a gauge computed at export time. The
// function runs on whatever goroutine exports, so it must only read
// state that is safe to read there (the testbed exports from the
// simulation thread).
func (r *Registry) RegisterGaugeFunc(fn func() float64, name string, labels ...Label) {
	r.add(metric{name: name, labelStr: renderLabels(labels), kind: KindGauge, gaugeFn: fn})
}

// NewHistogram registers and returns a histogram over the given upper
// bounds.
func (r *Registry) NewHistogram(name string, bounds []float64, labels ...Label) *Histogram {
	h := NewHistogram(bounds)
	r.add(metric{name: name, labelStr: renderLabels(labels), kind: KindHistogram, hist: h})
	return h
}

// Snapshot is one exported metric value.
type Snapshot struct {
	Name   string
	Labels string // rendered {k="v"} form, "" when unlabeled
	Kind   Kind
	// Value carries counter (as float) and gauge values.
	Value float64
	// Buckets/BucketCounts, Sum and Count carry histogram state.
	Buckets      []float64
	BucketCounts []uint64
	Sum          float64
	Count        uint64
}

// Snapshot captures every registered metric, sorted by name then label
// string, so exports are deterministic.
func (r *Registry) Snapshot() []Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	out := make([]Snapshot, 0, len(ms))
	for _, m := range ms {
		s := Snapshot{Name: m.name, Labels: m.labelStr, Kind: m.kind}
		switch {
		case m.counter != nil:
			s.Value = float64(m.counter.Value())
		case m.counterFn != nil:
			s.Value = float64(m.counterFn())
		case m.gaugeFn != nil:
			s.Value = m.gaugeFn()
		case m.hist != nil:
			s.Buckets, s.BucketCounts = m.hist.Buckets()
			s.Sum = m.hist.Sum()
			s.Count = m.hist.Count()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}
