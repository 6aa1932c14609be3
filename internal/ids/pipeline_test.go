package ids

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ddoshield/internal/features"
	"ddoshield/internal/ml"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/telemetry/trace"
)

// slowModel gives the processor away and sleeps before every batch, so the
// window's goroutine is still at work whenever the owner reaches a join and
// every join really waits. inside is what the model measured in PredictBatch.
type slowModel struct {
	inner  ml.Classifier
	delay  time.Duration
	inside atomic.Int64
}

func (m *slowModel) Predict(x []float64) int { return m.inner.Predict(x) }
func (m *slowModel) Name() string            { return m.inner.Name() }
func (m *slowModel) PredictBatch(xs [][]float64, out []int) {
	start := time.Now()
	runtime.Gosched()
	time.Sleep(m.delay)
	ml.PredictBatch(m.inner, xs, out)
	m.inside.Add(int64(time.Since(start)))
}

// gatedModel holds its first batch until release is closed and says on
// entered that it got there: a window that stays in flight for as long as
// the test wants.
type gatedModel struct {
	inner            ml.Classifier
	entered, release chan struct{}
}

func newGatedModel(inner ml.Classifier) *gatedModel {
	return &gatedModel{inner: inner, entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (m *gatedModel) Predict(x []float64) int { return m.inner.Predict(x) }
func (m *gatedModel) Name() string            { return m.inner.Name() }
func (m *gatedModel) PredictBatch(xs [][]float64, out []int) {
	select {
	case m.entered <- struct{}{}:
	default:
	}
	<-m.release
	ml.PredictBatch(m.inner, xs, out)
}

// panickyModel panics on its n-th batch (counting from 1).
type panickyModel struct {
	inner ml.Classifier
	n     int64
	calls atomic.Int64
}

func (m *panickyModel) Predict(x []float64) int { return m.inner.Predict(x) }
func (m *panickyModel) Name() string            { return m.inner.Name() }
func (m *panickyModel) PredictBatch(xs [][]float64, out []int) {
	if m.calls.Add(1) == m.n {
		panic("model blew up")
	}
	ml.PredictBatch(m.inner, xs, out)
}

// withoutCPU strips the wall-clock field from a timeline.
func withoutCPU(rs []WindowResult) []WindowResult {
	for i := range rs {
		rs[i].CPU = 0
	}
	return rs
}

// TestResultsIndependentOfScheduling runs each detector plain, on one
// processor (the window's goroutine runs only when the owner blocks at a
// join), and behind a model that sleeps: the timeline is the same.
func TestResultsIndependentOfScheduling(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sizes := []int{200, 3, chunk, 500, 1, 130}
	detectors := trainedDetectors(t, windowsOf(rng, append(sizes, sizes...)))
	frames := windowsOf(rng, sizes)
	run := func(cfg Config) []WindowResult {
		cfg.Labeler = spoofLabeler
		u := New(cfg)
		for _, p := range frames {
			u.Feed(p)
		}
		u.Flush()
		return withoutCPU(u.Results())
	}
	for name, cfg := range detectors {
		want := run(cfg)
		prev := runtime.GOMAXPROCS(1)
		one := run(cfg)
		runtime.GOMAXPROCS(prev)
		if !reflect.DeepEqual(one, want) {
			t.Errorf("%s: GOMAXPROCS=1 timeline differs:\n%+v\n%+v", name, one, want)
		}
		cfg.Model = &slowModel{inner: cfg.Model, delay: 200 * time.Microsecond}
		if slow := run(cfg); !reflect.DeepEqual(slow, want) {
			t.Errorf("%s: timeline behind a sleeping model differs:\n%+v\n%+v", name, slow, want)
		}
	}
}

// feedUntilPanic feeds frames and then flushes; it reports the index of the
// frame whose Feed panicked (len(frames) for Flush, -1 for none) and the
// panic's text. That it can report at all is the point: the panic arrived
// on the feeding goroutine.
func feedUntilPanic(u *Unit, frames []*packet.Packet) (at int, msg string) {
	at = -1
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	for i, p := range frames {
		at = i
		u.Feed(p)
	}
	at = len(frames)
	u.Flush()
	return -1, ""
}

// TestClassifierPanicFailsTheRun: a model that panics on its third window
// does so on a goroutine nobody can recover from; the unit must carry the
// panic to the owner and raise it at the window's fold point — the Feed
// that closes the window when the unit has a hook, else the Feed that closes
// the next one, Flush, or an accessor.
func TestClassifierPanicFailsTheRun(t *testing.T) {
	const per = 40 // below chunk: one batch per window
	frames := windowsOf(rand.New(rand.NewSource(3)), []int{per, per, per, per, per})
	newUnit := func(n int) *Unit {
		return New(Config{Model: &panickyModel{inner: NewThresholdRule(), n: int64(n)}, Labeler: spoofLabeler})
	}
	check := func(name string, u *Unit, at, wantAt int, msg string, folded int) {
		t.Helper()
		if at != wantAt || !strings.Contains(msg, "model blew up") || !strings.Contains(msg, "window at 2") {
			t.Fatalf("%s: panic at frame %d (want %d): %q", name, at, wantAt, msg)
		}
		// The unit is still usable and holds what was folded before.
		if got := len(u.Results()); got != folded {
			t.Fatalf("%s: %d windows folded after the panic, want %d", name, got, folded)
		}
	}

	u := newUnit(3)
	at, msg := feedUntilPanic(u, frames)
	check("no hook", u, at, 4*per, msg, 2)

	u = newUnit(3)
	u.AddWindowHook(func(*WindowResult) {})
	at, msg = feedUntilPanic(u, frames)
	check("hook", u, at, 3*per, msg, 2)

	u = newUnit(3)
	at, msg = feedUntilPanic(u, frames[:3*per])
	check("flush", u, at, 3*per, msg, 2)

	u = newUnit(3)
	if at, msg := feedUntilPanic(u, nil); at != -1 || msg != "" {
		t.Fatalf("empty run panicked at %d: %q", at, msg)
	}
	for _, p := range frames[:3*per+1] {
		u.Feed(p)
	}
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		u.PacketsSeen()
	}()
	check("accessor", u, 0, 0, msg, 2)
}

// promValue reads one series out of a registry snapshot.
func promValue(t *testing.T, snap []telemetry.Snapshot, name string) float64 {
	t.Helper()
	for _, s := range snap {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("no %s in the snapshot", name)
	return 0
}

// TestRegistrySnapshotNeitherFoldsNorRaces snapshots the registry from
// another goroutine while a window is held in flight and the owner goes on
// feeding: the snapshots return (nothing they evaluate joins), show folded
// windows only, and race with neither goroutine of the unit.
func TestRegistrySnapshotNeitherFoldsNorRaces(t *testing.T) {
	reg := telemetry.NewRegistry()
	gate := newGatedModel(NewThresholdRule())
	u := New(Config{Model: gate, Labeler: spoofLabeler, Registry: reg, Name: "gated"})
	reg.RegisterGaugeFunc(func() float64 {
		at, ok := u.FirstCorrectAlert()
		if !ok {
			return -1
		}
		return at.Seconds()
	}, "ids_detection_latency_seconds", telemetry.L("unit", "gated"))

	var frames []*packet.Packet
	for i := 0; i < 50; i++ {
		frames = append(frames, synFrame(sim.Time(i)*10*sim.Millisecond, byte(i), uint32(i*7919)))
	}
	for i := 0; i < 200; i++ {
		frames = append(frames, benignFrame(sim.Second+sim.Time(i)*sim.Millisecond, uint32(i)))
	}
	for _, p := range frames[:51] {
		u.Feed(p)
	}
	<-gate.entered // window 0 is with the model and stays there

	done := make(chan []telemetry.Snapshot)
	go func() {
		var last []telemetry.Snapshot
		for i := 0; i < 100; i++ {
			last = reg.Snapshot()
		}
		done <- last
	}()
	for _, p := range frames[51:] {
		u.Feed(p)
	}
	var snap []telemetry.Snapshot
	select {
	case snap = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a registry snapshot blocked on the window in flight")
	}
	for _, name := range []string{"ids_packets_total", "ids_windows_total", "ids_alerts_total"} {
		if v := promValue(t, snap, name); v != 0 {
			t.Errorf("%s = %v with the only closed window still in flight", name, v)
		}
	}
	if v := promValue(t, snap, "ids_detection_latency_seconds"); v != -1 {
		t.Errorf("ids_detection_latency_seconds = %v before any fold", v)
	}

	close(gate.release)
	u.Flush()
	snap = reg.Snapshot()
	for name, want := range map[string]float64{
		"ids_packets_total": 250, "ids_windows_total": 2, "ids_alerts_total": 1,
		"ids_detection_latency_seconds": 1,
	} {
		if v := promValue(t, snap, name); v != want {
			t.Errorf("%s = %v after Flush, want %v", name, v, want)
		}
	}
}

// TestSnapshotOutlivesExtractorBuffer scribbles over the extractor's window
// the moment the unit's callback returns — what the next window's packets
// do to that storage a little later — while the model is still asleep. The
// window's goroutine and the fold read the snapshot, so nothing changes.
func TestSnapshotOutlivesExtractorBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sizes := []int{300, 20, 300, 150}
	cfg := trainedDetectors(t, windowsOf(rng, append(sizes, sizes...)))["kmeans"]
	cfg.Labeler = spoofLabeler
	frames := windowsOf(rng, sizes)
	run := func(scribble bool) []WindowResult {
		c := cfg
		c.Model = &slowModel{inner: cfg.Model, delay: time.Millisecond}
		u := New(c)
		if scribble {
			unit := u.front.extractor.OnWindow
			u.front.extractor.OnWindow = func(w *features.Window) {
				unit(w)
				for i := range w.Packets {
					w.Packets[i] = features.Basic{Src: packet.AddrFrom4(10, 0, 200, 9), Proto: packet.ProtoUDP, Length: 1}
				}
				w.Stats = features.Stats{}
			}
		}
		for _, p := range frames {
			u.Feed(p)
		}
		u.Flush()
		return withoutCPU(u.Results())
	}
	want, got := run(false), run(true)
	if len(want) != len(sizes) || !reflect.DeepEqual(got, want) {
		t.Fatalf("scribbling over the extractor's buffer changed the timeline:\n%+v\n%+v", got, want)
	}
}

// TestHookRunsBeforeClosingCallReturns: what a hook does belongs to the
// instant its window closed, so the hook for window k has run when the Tap
// call that closed window k returns, however slow the model.
func TestHookRunsBeforeClosingCallReturns(t *testing.T) {
	var hooked []sim.Time
	u := New(Config{Model: &slowModel{inner: NewThresholdRule(), delay: time.Millisecond}})
	u.AddWindowHook(func(r *WindowResult) { hooked = append(hooked, r.Start) })
	tap := u.Tap()
	for _, p := range windowsOf(rand.New(rand.NewSource(4)), []int{100, 100, 100, 100}) {
		tap(p.Time, p.Raw, trace.Context{})
		// Every window of windowsOf holds packets, so a frame at t has
		// closed the windows before t's.
		if closed := int(p.Time / sim.Second); len(hooked) != closed {
			t.Fatalf("frame at %v closed window %d; the hook has run %d times", p.Time, closed, len(hooked))
		}
	}
	u.Flush()
	if want := []sim.Time{0, sim.Second, 2 * sim.Second, 3 * sim.Second}; !reflect.DeepEqual(hooked, want) {
		t.Fatalf("hook saw windows %v, want %v", hooked, want)
	}
}

// TestNoGoroutineOutlivesFlush: the unit owns no goroutine between windows,
// so there is nothing for a caller to close.
func TestNoGoroutineOutlivesFlush(t *testing.T) {
	before := runtime.NumGoroutine()
	u := New(Config{Model: &slowModel{inner: NewThresholdRule(), delay: 100 * time.Microsecond}})
	for _, p := range windowsOf(rand.New(rand.NewSource(8)), []int{100, 100, 100, 100, 100}) {
		u.Feed(p)
	}
	u.Flush()
	// Flush returns when the last window's goroutine has signalled, which
	// is its last statement but one: give it the moment it needs to exit.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the run, %d after Flush", before, runtime.NumGoroutine())
		}
	}
}
