package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("zero gauge reads %v", g.Value())
	}
	g.Add(3.5)
	g.Add(-1.25)
	if got := g.Value(); got != 2.25 {
		t.Fatalf("gauge = %v, want 2.25", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 50, 1000} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 4 || !math.IsInf(bounds[3], 1) {
		t.Fatalf("bounds = %v", bounds)
	}
	// 0.5 and 1 land in le=1; 2 in le=10; 50 in le=100; 1000 in +Inf.
	want := []uint64{2, 1, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket counts = %v, want %v", counts, want)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 1053.5 {
		t.Fatalf("sum = %v, want 1053.5", h.Sum())
	}
}

func TestRegistrySnapshotDeterministicOrder(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("zzz_total")
	reg.NewCounter("aaa_total", L("b", "2"))
	reg.NewCounter("aaa_total", L("b", "1"))
	reg.RegisterGaugeFunc(func() float64 { return 0 }, "mmm")
	snap := reg.Snapshot()
	var order []string
	for _, s := range snap {
		order = append(order, s.Name+s.Labels)
	}
	want := []string{`aaa_total{b="1"}`, `aaa_total{b="2"}`, "mmm", "zzz_total"}
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestRegistryReregistrationReplaces(t *testing.T) {
	reg := NewRegistry()
	a := reg.NewCounter("x_total", L("k", "v"))
	a.Add(5)
	b := reg.NewCounter("x_total", L("k", "v"))
	b.Add(7)
	if n := len(reg.Snapshot()); n != 1 {
		t.Fatalf("registry holds %d metrics, want 1", n)
	}
	if got := reg.Snapshot()[0].Value; got != 7 {
		t.Fatalf("snapshot value = %v, want the replacement's 7", got)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var reg *Registry
	c := reg.NewCounter("x_total")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("standalone counter from nil registry must work")
	}
	h := reg.NewHistogram("z", []float64{1})
	h.Observe(0.5)
	reg.RegisterCounterFunc(func() uint64 { return 0 }, "f_total")
	reg.RegisterGaugeFunc(func() float64 { return 0 }, "fg")
	if reg.Snapshot() != nil {
		t.Fatal("nil registry must report nothing")
	}
}

func TestFuncMetrics(t *testing.T) {
	reg := NewRegistry()
	n := uint64(7)
	reg.RegisterCounterFunc(func() uint64 { return n }, "fn_total")
	v := 1.5
	reg.RegisterGaugeFunc(func() float64 { return v }, "fn_gauge")
	snap := reg.Snapshot()
	if snap[1].Value != 7 || snap[0].Value != 1.5 {
		t.Fatalf("func metric snapshot wrong: %+v", snap)
	}
	n, v = 9, 2.5
	snap = reg.Snapshot()
	if snap[1].Value != 9 || snap[0].Value != 2.5 {
		t.Fatalf("func metrics must re-evaluate at export: %+v", snap)
	}
}

func TestLabelRendering(t *testing.T) {
	got := renderLabels([]Label{L("z", "1"), L("a", `quo"te`)})
	want := `{a="quo\"te",z="1"}`
	if got != want {
		t.Fatalf("labels = %s, want %s", got, want)
	}
	if renderLabels(nil) != "" {
		t.Fatal("no labels must render empty")
	}
}
