package ids

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ddoshield/internal/netsim"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/telemetry/trace"
)

// frontRun is what one detection set-up leaves behind, per unit and shared.
type frontRun struct {
	results [][]WindowResult
	events  [][]telemetry.TraceEvent
	hooked  []WindowResult
	spans   string
	prom    string
}

// runDetectors taps frames into units built from cfgs — the second one with
// a hook — either all on one front or each on its own front, fed frame by
// frame in unit order as separate taps on one link would be. Every frame
// carries a sampled trace, and each unit records into its own recorder.
func runDetectors(t *testing.T, cfgs []Config, frames []*packet.Packet, shared bool) frontRun {
	t.Helper()
	reg := telemetry.NewRegistry()
	tr := trace.New(trace.Config{SampleRate: 1, SpanCapacity: 1 << 20})
	var out frontRun
	units := make([]*Unit, len(cfgs))
	recs := make([]*telemetry.Recorder, len(cfgs))
	for i, cfg := range cfgs {
		recs[i] = telemetry.NewRecorder(1 << 12)
		cfg.Labeler, cfg.Registry, cfg.Recorder = spoofLabeler, reg, recs[i]
		units[i] = New(cfg)
		if i == 1 {
			units[i].AddWindowHook(func(r *WindowResult) {
				c := *r
				c.CPU = 0
				out.hooked = append(out.hooked, c)
			})
		}
		if shared && i > 0 && !units[0].Front().Subscribe(units[i]) {
			t.Fatalf("unit %d refused by a fresh front", i)
		}
	}
	taps := []netsim.Tap{units[0].Tap()}
	if !shared {
		for _, u := range units[1:] {
			taps = append(taps, u.Tap())
		}
	}
	for _, p := range frames {
		tc := tr.Origin(p.Time, trace.Flow{Src: p.IPv4.Src.Uint32(), Dst: p.IPv4.Dst.Uint32(), Proto: p.IPv4.Proto}, "send", "test")
		for _, tap := range taps {
			tap(p.Time, p.Raw, tc)
		}
	}
	for _, u := range units {
		u.Flush()
		out.results = append(out.results, withoutCPU(u.Results()))
	}
	for _, r := range recs {
		out.events = append(out.events, r.Events())
	}
	var windows []trace.Span
	for _, s := range tr.Spans() {
		if s.Name == "ids-window" {
			windows = append(windows, s)
		}
	}
	var spans strings.Builder
	if err := trace.WriteSpans(&spans, trace.CanonicalSpans(windows)); err != nil {
		t.Fatal(err)
	}
	out.spans = spans.String()
	var prom strings.Builder
	if err := telemetry.WritePrometheus(&prom, reg); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.SplitAfter(prom.String(), "\n") {
		if !strings.Contains(line, "ids_window_cpu_us") {
			out.prom += line
		}
	}
	return out
}

// TestFrontMatchesLoneUnits: three units on one front — one of them hooked,
// so the front folds all of them at dispatch — score what three units on
// fronts of their own score from the same frames: the same timelines,
// recorder events, finished "ids-window" spans and registry text, and the
// hook sees the same windows. In the second set the
// hooked unit has no model: its claims are skipped, and its windows still
// fold with their truth counts.
func TestFrontMatchesLoneUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sizes := []int{300, 40, 700, 1, 250, 500}
	detectors := trainedDetectors(t, windowsOf(rng, append(sizes, sizes...)))
	frames := append(windowsOf(rng, sizes), rowWindows(6*sim.Second)...)
	for _, names := range [][]string{{"rf", "kmeans", "cnn"}, {"rf", "none", "cnn"}} {
		var cfgs []Config
		for _, name := range names {
			cfg := detectors[name]
			cfg.Name = name
			cfgs = append(cfgs, cfg)
		}
		lone, front := runDetectors(t, cfgs, frames, false), runDetectors(t, cfgs, frames, true)

		if len(lone.results[0]) != len(sizes)+3 || len(lone.hooked) != len(sizes)+3 {
			t.Fatalf("%v: lone units saw %d windows, the hook %d; want %d", names, len(lone.results[0]), len(lone.hooked), len(sizes)+3)
		}
		if !strings.Contains(lone.spans, "alert") || !strings.Contains(lone.spans, "clear") {
			t.Fatalf("%v: the reference spans carry no verdicts", names)
		}
		for i := range cfgs {
			if !reflect.DeepEqual(front.results[i], lone.results[i]) {
				t.Errorf("%s: timelines differ:\nfront %+v\nlone  %+v", cfgs[i].Name, front.results[i], lone.results[i])
			}
			if !reflect.DeepEqual(front.events[i], lone.events[i]) {
				t.Errorf("%s: recorder events differ:\nfront %+v\nlone  %+v", cfgs[i].Name, front.events[i], lone.events[i])
			}
			if cfgs[i].Model != nil {
				continue
			}
			truth, flagged := 0, 0
			for _, r := range front.results[i] {
				truth += r.TruthMalicious
				flagged += r.PredMalicious
			}
			if len(front.results[i]) != len(sizes)+3 || truth == 0 || flagged != 0 {
				t.Errorf("%s: %d windows, %d malicious packets, %d flagged; want %d windows, some malicious, none flagged",
					cfgs[i].Name, len(front.results[i]), truth, flagged, len(sizes)+3)
			}
		}
		if !reflect.DeepEqual(front.hooked, lone.hooked) {
			t.Errorf("%v: the hook saw\n%+v\non the front and\n%+v\nalone", names, front.hooked, lone.hooked)
		}
		if front.spans != lone.spans {
			t.Errorf("%v: ids-window spans differ (%d vs %d bytes)", names, len(front.spans), len(lone.spans))
		}
		if front.prom != lone.prom {
			t.Errorf("%v: registry text differs:\n--- front ---\n%s--- lone ---\n%s", names, front.prom, lone.prom)
		}
	}
}

// TestFrontPaidOnceAttributedToEach: each unit's CPUTime and MemBytes
// include the whole of its front's, as a unit on its own would pay them,
// while the meter the three units share is charged the front's cost once:
// it reads the front plus what each unit added.
func TestFrontPaidOnceAttributedToEach(t *testing.T) {
	m := &fakeMeter{}
	var units []*Unit
	for i := 0; i < 3; i++ {
		u := New(Config{Model: &thresholdModel{featIdx: i, thr: 0.5}, Meter: m})
		if i > 0 && !units[0].Front().Subscribe(u) {
			t.Fatalf("unit %d refused by a fresh front", i)
		}
		units = append(units, u)
	}
	for _, p := range windowsOf(rand.New(rand.NewSource(2)), []int{400, 30, 400}) {
		units[0].Feed(p)
	}
	units[0].Flush()
	front := units[0].Front()
	paid := front.CPUTime()
	if paid <= 0 || front.MemBytes() <= 0 {
		t.Fatalf("the front reports %v and %d bytes", paid, front.MemBytes())
	}
	for i, u := range units {
		if u.CPUTime() <= front.CPUTime() || u.MemBytes() <= front.MemBytes() {
			t.Fatalf("unit %d: %v and %d bytes, not above its front's %v and %d", i, u.CPUTime(), u.MemBytes(), front.CPUTime(), front.MemBytes())
		}
		paid += u.CPUTime() - front.CPUTime()
	}
	if m.total != paid {
		t.Fatalf("the shared meter read %v; the front plus each unit's own is %v", m.total, paid)
	}
}
