package testbed

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ddoshield/internal/dataset"
	"ddoshield/internal/features"
	"ddoshield/internal/ids"
	"ddoshield/internal/ml"
	"ddoshield/internal/ml/cnn"
	"ddoshield/internal/ml/forest"
	"ddoshield/internal/ml/kmeans"
	"ddoshield/internal/sim"
)

// paperDetectors trains small versions of the paper's three models on a
// labelled capture of the campaign the determinism test replays (another
// seed), the way the benchmark's paper10-live prepares its own.
func paperDetectors(t *testing.T, cfg Config, drive func(*testing.T, *Testbed)) []ids.Config {
	t.Helper()
	cfg.Seed++
	cfg.TraceSampleRate = 0
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dc := tb.NewDatasetCollector(time.Second)
	tb.AddTap(dc.Tap())
	drive(t, tb)
	corpus := dc.Dataset()
	if sum := corpus.Summarize(); sum.Benign == 0 || sum.Malicious == 0 {
		t.Fatalf("training capture misses a class: %v", sum)
	}
	ds := corpus.Subsample(4000, sim.NewRNG(1))
	raw, ys := ds.XY()
	off := features.NumBasic()
	stats := make([][]float64, len(raw))
	for i, x := range raw {
		stats[i] = x[off:]
	}
	rf, err := forest.Train(forest.Config{Trees: 8, MaxDepth: 6, Seed: 1}, stats, ys)
	if err != nil {
		t.Fatal(err)
	}
	scaler := dataset.FitStandard(ds)
	scaler.Apply(ds)
	xs, _ := ds.XY()
	km, err := kmeans.Train(kmeans.Config{InitClusters: 8, Seed: 2}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := cnn.Train(cnn.Config{Conv1Filters: 4, Conv2Filters: 8, Hidden: 16, Epochs: 2, Seed: 3}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	return []ids.Config{
		{Name: "rf", Model: ml.OffsetView{Inner: rf, Offset: off}},
		{Name: "kmeans", Model: km, Scaler: scaler},
		{Name: "cnn", Model: net, Scaler: scaler},
	}
}

// sleepyModel yields and sleeps before every batch, so that the window's
// goroutine is still busy whenever the scheduler's reaches a join.
type sleepyModel struct{ inner ml.Classifier }

func (m sleepyModel) Predict(x []float64) int { return m.inner.Predict(x) }
func (m sleepyModel) Name() string            { return m.inner.Name() }
func (m sleepyModel) PredictBatch(xs [][]float64, out []int) {
	runtime.Gosched()
	time.Sleep(50 * time.Microsecond)
	ml.PredictBatch(m.inner, xs, out)
}

// TestDetectionPipelineDeterminism is the detection pipeline's contract: the
// three models classify on goroutines of their own, and nothing a run
// produces may show how those were scheduled. The same campaign with the
// paper's three detectors live on the tap gives byte-identical timelines,
// Summary, Prometheus text (less the wall-clock histogram) and canonical
// spans on one processor and on all of them, serial and split into three
// domains, and behind models that sleep in every batch so that every join
// has to wait. A divergence means a fold moved to a point the scheduler
// chooses, or a window's goroutine touched the owner's state; under -race
// the second kind fails as a report.
func TestDetectionPipelineDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("six live three-model campaigns")
	}
	cfg := Config{
		Seed:              42,
		NumDevices:        10,
		MeanThink:         3 * time.Second,
		TraceSampleRate:   0.2,
		TraceSpanCapacity: 1 << 20,
	}
	campaign := waves(8*time.Second, time.Second, 2*time.Second, 1500, 17*time.Second)
	detectors := paperDetectors(t, cfg, campaign)

	type variant struct {
		domains, procs int
		sleepy         bool
	}
	run := func(v variant) (runArtifacts, string) {
		if v.procs > 0 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(v.procs))
		}
		c := cfg
		c.Domains = v.domains
		var timelines strings.Builder
		a := artifacts(t, c, func(t *testing.T, tb *Testbed) {
			units := make([]*ids.Unit, len(detectors))
			for i, d := range detectors {
				if v.sleepy {
					d.Model = sleepyModel{d.Model}
				}
				d.Window = time.Second
				d.Labeler, d.Meter = tb.Labeler(), tb.IDSContainer()
				d.Registry, d.Recorder = tb.Registry(), tb.Recorder()
				units[i] = ids.New(d)
				tb.AttachIDS(units[i])
			}
			campaign(t, tb)
			// A second leg: Run returned once with windows closed and
			// none in flight, and resumes.
			if err := tb.Run(3 * time.Second); err != nil {
				t.Fatal(err)
			}
			for _, u := range units {
				u.Flush()
				for _, r := range u.Results() {
					r.CPU = 0
					fmt.Fprintf(&timelines, "%s %+v\n", u.Name(), r)
				}
			}
		})
		var prom strings.Builder
		for _, line := range strings.SplitAfter(a.prom, "\n") {
			if !strings.Contains(line, "ids_window_cpu_us") {
				prom.WriteString(line)
			}
		}
		a.prom = prom.String()
		return a, timelines.String()
	}

	want, wantTimelines := run(variant{domains: 1})
	if !strings.Contains(wantTimelines, "Alert:true") || !strings.Contains(wantTimelines, "Alert:false") {
		t.Fatalf("the reference run needs both verdicts:\n%s", wantTimelines)
	}
	if !strings.Contains(want.spans, "ids-window") || !strings.Contains(want.summary, "detection    unit=cnn latency=") {
		t.Fatal("the reference run has no ids-window span or no detection line")
	}
	for _, v := range []variant{
		{domains: 1, procs: 1},
		{domains: 3},
		{domains: 3, procs: 1},
		{domains: 1, sleepy: true},
		{domains: 3, sleepy: true},
	} {
		got, timelines := run(v)
		switch {
		case timelines != wantTimelines:
			t.Errorf("%+v: timelines differ\n--- reference ---\n%s--- got ---\n%s", v, wantTimelines, timelines)
		case got.summary != want.summary:
			t.Errorf("%+v: Summary differs\n--- reference ---\n%s--- got ---\n%s", v, want.summary, got.summary)
		case got.prom != want.prom:
			t.Errorf("%+v: Prometheus text differs (%d vs %d bytes)", v, len(want.prom), len(got.prom))
		case got.spans != want.spans:
			t.Errorf("%+v: canonical spans differ (%d vs %d bytes)", v, len(want.spans), len(got.spans))
		}
	}
}

// explodingModel panics on its n-th prediction.
type explodingModel struct {
	n     int64
	calls atomic.Int64
}

func (m *explodingModel) Name() string { return "exploding" }
func (m *explodingModel) Predict([]float64) int {
	if m.calls.Add(1) == m.n {
		panic("model blew up")
	}
	return dataset.Benign
}

// TestModelPanicSurfacesFromRun: a model panics on a goroutine of its own,
// where nothing can recover it; the run must fail the way it did when the
// model ran on the scheduler's — a panic out of a serial Run, an error out
// of a partitioned one on any worker count (the engine turns a domain's
// panic into one) — whether the unit folds at once (a hook) or a window
// later.
func TestModelPanicSurfacesFromRun(t *testing.T) {
	for _, mode := range [][2]int{{1, 0}, {3, 1}, {3, 0}} {
		domains, workers := mode[0], mode[1]
		for _, hooked := range []bool{false, true} {
			tb, err := New(Config{Seed: 3, NumDevices: 5, Domains: domains, PDESWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			// A window hands the model its distinct rows only, a few dozen a
			// second on this fleet: the 40th falls a few windows into the run.
			unit := ids.New(ids.Config{Model: &explodingModel{n: 40}, Window: time.Second})
			if hooked {
				unit.AddWindowHook(func(*ids.WindowResult) {})
			}
			tb.AttachIDS(unit)
			tb.Start()
			var panicked, failed string
			func() {
				defer func() {
					if r := recover(); r != nil {
						panicked = fmt.Sprint(r)
					}
				}()
				if err := tb.Run(10 * time.Second); err != nil {
					failed = err.Error()
				}
			}()
			failure := failed
			if domains == 1 {
				failure = panicked
			}
			if !strings.Contains(failure, "model blew up") {
				t.Errorf("domains=%d workers=%d hooked=%v: the run did not fail with the model's panic: error %q, panic %q",
					domains, workers, hooked, failed, panicked)
			}
		}
	}
}

// TestLateUnitGetsItsOwnFront: units of one window size attached before any
// traffic share one capture front end and one tap; a unit of another
// window size starts a front of its own, and so does a unit attached after
// frames have crossed the link, which then sees only later frames — the
// same later windows the early units score — and takes the next late unit
// of its window size as a subscriber.
func TestLateUnitGetsItsOwnFront(t *testing.T) {
	tb, err := New(Config{Seed: 5, NumDevices: 4, MeanThink: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	unit := func(name string, window time.Duration) *ids.Unit {
		u := ids.New(ids.Config{Name: name, Window: window})
		tb.AttachIDS(u)
		return u
	}
	a, b := unit("a", time.Second), unit("b", time.Second)
	slow := unit("slow", 2*time.Second)
	if a.Front() != b.Front() || slow.Front() == a.Front() || len(tb.fronts) != 2 {
		t.Fatalf("early units on %d fronts: a and b shared %v, slow shared %v",
			len(tb.fronts), a.Front() == b.Front(), slow.Front() == a.Front())
	}
	tb.Start()
	if err := tb.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	late, later := unit("late", time.Second), unit("later", time.Second)
	if late.Front() == a.Front() || later.Front() != late.Front() || len(tb.fronts) != 3 {
		t.Fatalf("late units: shared the early front %v, shared each other's %v, %d fronts",
			late.Front() == a.Front(), later.Front() == late.Front(), len(tb.fronts))
	}
	if err := tb.Run(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	var early, after []ids.WindowResult
	for _, u := range []*ids.Unit{a, b, slow, late, later} {
		u.Flush()
	}
	for _, r := range a.Results() {
		if r.Start >= 4*sim.Second {
			r.CPU = 0
			early = append(early, r)
		}
	}
	lateResults := late.Results()
	for _, r := range lateResults {
		if r.Start >= 4*sim.Second {
			r.CPU = 0
			after = append(after, r)
		}
	}
	switch {
	case len(lateResults) == 0 || lateResults[0].Start < 3*sim.Second || len(early) == len(a.Results()):
		t.Fatalf("the late unit's windows %+v; the early unit scored %d windows before 4 s", lateResults, len(a.Results())-len(early))
	case len(early) == 0 || fmt.Sprint(early) != fmt.Sprint(after):
		t.Fatalf("windows from 4 s on differ:\nearly %+v\nlate  %+v", early, after)
	case late.PacketsSeen() >= a.PacketsSeen() || late.PacketsSeen() != later.PacketsSeen() || a.PacketsSeen() != b.PacketsSeen():
		t.Fatalf("packets seen: a %d, b %d, late %d, later %d", a.PacketsSeen(), b.PacketsSeen(), late.PacketsSeen(), later.PacketsSeen())
	}
}
