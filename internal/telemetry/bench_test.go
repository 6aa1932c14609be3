package telemetry

import (
	"testing"

	"ddoshield/internal/sim"
)

// TestHotPathAllocFree is the PR's acceptance guard: counter and gauge
// updates, histogram observation and flight-recorder emission must not
// allocate — they sit on the per-frame and per-window hot paths.
func TestHotPathAllocFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("bench_counter_total")
	var g Gauge
	h := reg.NewHistogram("bench_hist", []float64{1, 10, 100, 1000})
	rec := NewRecorder(64)

	if allocs := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); allocs != 0 {
		t.Fatalf("Counter.Inc/Add allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { g.Add(0.5) }); allocs != 0 {
		t.Fatalf("Gauge.Add allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(42) }); allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		rec.Emit(sim.Second, CatTCP, "retransmit", "dev00/eth0", 64)
	}); allocs != 0 {
		t.Fatalf("Recorder.Emit allocates %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram([]float64{1, 10, 100, 1000, 10000})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 20000))
	}
}

func BenchmarkRecorderEmit(b *testing.B) {
	r := NewRecorder(DefaultRecorderCapacity)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(sim.Time(i), CatTCP, "retransmit", "dev00/eth0", 64)
	}
}

func BenchmarkPrometheusExport(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 64; i++ {
		reg.NewCounter("bench_total", L("i", string(rune('a'+i%26))+string(rune('a'+i/26)))).Add(uint64(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = WritePrometheus(discard{}, reg)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
