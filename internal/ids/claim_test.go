package ids

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ddoshield/internal/ml"
	"ddoshield/internal/ml/metrics"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// distinctWindows builds one window per entry of rows, each in its own
// second, with exactly that many distinct rows: the benign segment, sent
// several times, and rows-1 spoofed SYNs of their own, each sent twice so
// that verdicts are copied to repeats. The benign share alternates from
// window to window, so that window-level models see both kinds, and its
// count grows, so that no two windows share their statistics.
func distinctWindows(rows []int) []*packet.Packet {
	var out []*packet.Packet
	for w, n := range rows {
		k := 0
		at := func() sim.Time { k++; return sim.Time(w)*sim.Second + sim.Time(k)*100*sim.Microsecond }
		for i := range 1 + w + 2*n*(w%2) {
			out = append(out, benignFrame(at(), uint32(i)))
		}
		for i := range n - 1 {
			for range 2 {
				out = append(out, synFrame(at(), byte(i), uint32(i)))
			}
		}
	}
	return out
}

// rowSetModel records every row it classifies, by the bits of its vector:
// in a run whose windows all differ in their statistics, a row seen twice
// is a chunk classified twice.
type rowSetModel struct {
	inner ml.Classifier
	mu    sync.Mutex
	rows  int
	seen  map[string]bool
}

func (m *rowSetModel) Predict(x []float64) int { return m.inner.Predict(x) }
func (m *rowSetModel) Name() string            { return m.inner.Name() }
func (m *rowSetModel) PredictBatch(xs [][]float64, out []int) {
	m.mu.Lock()
	for _, x := range xs {
		var key strings.Builder
		for _, v := range x {
			key.WriteString(strconv.FormatUint(math.Float64bits(v), 16))
			key.WriteByte(' ')
		}
		m.rows++
		m.seen[key.String()] = true
	}
	m.mu.Unlock()
	ml.PredictBatch(m.inner, xs, out)
}

// perPacketConfusion is a timeline's packet-level confusion matrix, from
// its windows' counts: TP+TN = Correct, TP+FN = TruthMalicious,
// TP+FP = PredMalicious, and all four sum to Packets.
func perPacketConfusion(rs []WindowResult) metrics.Confusion {
	var c metrics.Confusion
	for _, r := range rs {
		tp := (r.TruthMalicious + r.PredMalicious + r.Correct - r.Packets) / 2
		c.TP += tp
		c.TN += r.Correct - tp
		c.FN += r.TruthMalicious - tp
		c.FP += r.PredMalicious - tp
	}
	return c
}

// goid is the calling goroutine's id, read from its stack header.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// ownerPanicModel panics whenever it is called on the goroutine owner. Its
// first call waits for its second (or gives up after a while), so that of
// a window with two chunks or more, one chunk each is in the model on the
// window's goroutine and on an owner that joined at dispatch.
type ownerPanicModel struct {
	inner ml.Classifier
	owner string
	calls atomic.Int32
	met   chan struct{}
}

func (m *ownerPanicModel) Predict(x []float64) int { return m.inner.Predict(x) }
func (m *ownerPanicModel) Name() string            { return m.inner.Name() }
func (m *ownerPanicModel) PredictBatch(xs [][]float64, out []int) {
	switch m.calls.Add(1) {
	case 1:
		select {
		case <-m.met:
		case <-time.After(10 * time.Second):
		}
	case 2:
		close(m.met)
	}
	if goid() == m.owner {
		panic("model blew up on the owner")
	}
	ml.PredictBatch(m.inner, xs, out)
}

// TestOwnerHelpsClassify: an owner that joins a window in flight — here at
// every dispatch, one unit having an OnWindow consumer — claims chunks of it
// with its own scratch set, and nothing a run produces shows it. On fronts
// of one and three units and windows of 1, 64, 65 and 500 distinct rows,
// the timelines equal a GOMAXPROCS=1 run's and per-packet Predict's; each
// unit's model sees every distinct row of every window exactly once; and
// the owner did classify chunks. A model that
// panics in a chunk the owner claimed fails the Feed that closed the
// window, naming the unit, after the units before it have folded.
func TestOwnerHelpsClassify(t *testing.T) {
	rows := []int{1, chunk, chunk + 1, 500}
	detectors := trainedDetectors(t, windowsOf(rand.New(rand.NewSource(41)), []int{300, 300}))
	frames := distinctWindows(append(rows, rows...))
	sumRows := 2 * (1 + chunk + chunk + 1 + 500)

	run := func(names []string) ([][]WindowResult, *Front) {
		var us []*Unit
		var recs []*rowSetModel
		for i, name := range names {
			cfg := detectors[name]
			cfg.Name, cfg.Labeler = name, spoofLabeler
			rec := &rowSetModel{inner: cfg.Model, seen: map[string]bool{}}
			cfg.Model = &slowModel{inner: rec, delay: 200 * time.Microsecond}
			if i == len(names)/2 {
				cfg.OnWindow = func(*WindowResult) {}
			}
			u := New(cfg)
			if i > 0 && !us[0].Front().Subscribe(u) {
				t.Fatalf("unit %d refused by a fresh front", i)
			}
			us, recs = append(us, u), append(recs, rec)
		}
		for _, p := range frames {
			us[0].Feed(p)
		}
		us[0].Flush()
		out := make([][]WindowResult, len(us))
		for i, u := range us {
			out[i] = withoutCPU(u.Results())
			if recs[i].rows != sumRows || len(recs[i].seen) != sumRows {
				t.Errorf("%v: %s's model classified %d rows, %d of them distinct; the windows have %d distinct rows",
					names, names[i], recs[i].rows, len(recs[i].seen), sumRows)
			}
		}
		return out, us[0].Front()
	}

	for _, names := range [][]string{{"cnn"}, {"rf", "kmeans", "cnn"}} {
		got, front := run(names)
		t.Logf("%v: the owner classified %d chunks", names, front.ownerChunks)
		if front.ownerChunks == 0 {
			t.Errorf("%v: the owner joined every window at dispatch and classified no chunk", names)
		}
		prev := runtime.GOMAXPROCS(1)
		one, _ := run(names)
		runtime.GOMAXPROCS(prev)
		flagged, packets := 0, 0
		for i, name := range names {
			cfg := detectors[name]
			want := perPacket(cfg.Model, cfg.Scaler, frames)
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("%v: %s's timeline differs from per-packet Predict:\n%+v\n%+v", names, name, got[i], want)
			}
			if !reflect.DeepEqual(one[i], got[i]) {
				t.Errorf("%v: %s's GOMAXPROCS=1 run differs:\n%+v\n%+v", names, name, one[i], got[i])
			}
			for _, r := range want {
				flagged += r.PredMalicious
				packets += r.Packets
			}
		}
		if flagged == 0 || flagged == packets {
			t.Errorf("%v flagged %d of %d packets: the comparison needs both verdicts", names, flagged, packets)
		}
	}

	// The model panics in the first window, of 500 distinct rows, in the
	// chunk the owner claimed; the second window's first packet closes it.
	owner := goid()
	for _, names := range [][]string{{"cnn"}, {"rf", "cnn", "kmeans"}} {
		bad := len(names) / 2
		var us []*Unit
		for i, name := range names {
			cfg := detectors[name]
			cfg.Name = name
			if i == bad {
				cfg.Model = &ownerPanicModel{inner: cfg.Model, owner: owner, met: make(chan struct{})}
			}
			if i == 0 {
				cfg.OnWindow = func(*WindowResult) {}
			}
			u := New(cfg)
			if i > 0 && !us[0].Front().Subscribe(u) {
				t.Fatalf("unit %d refused by a fresh front", i)
			}
			us = append(us, u)
		}
		fs := distinctWindows([]int{500, 1})
		at, msg := feedUntilPanic(us[0], fs)
		if want := len(distinctWindows([]int{500})); at != want || !strings.Contains(msg, "model blew up on the owner") ||
			!strings.Contains(msg, fmt.Sprintf("unit %s:", names[bad])) {
			t.Fatalf("%v: panic at frame %d (want %d, the one that closes the window): %q", names, at, want, msg)
		}
		for i, u := range us {
			want := 0
			if i < bad {
				want = 1
			}
			if got := len(u.Results()); got != want {
				t.Errorf("%v: %s folded %d windows before the panic, want %d", names, names[i], got, want)
			}
		}
	}
}

// TestMemBytesIndependentOfOwnerClaims: the front's memory report counts its
// two scratch sets at their full-chunk size, so it reads the same whether
// the owner claimed chunks (a unit with an OnWindow consumer joins every
// window at dispatch) or not (the window's goroutine classifies each window
// whole before the next frame is fed).
func TestMemBytesIndependentOfOwnerClaims(t *testing.T) {
	rows := []int{1, chunk, chunk + 1, 500}
	detectors := trainedDetectors(t, windowsOf(rand.New(rand.NewSource(41)), []int{300, 300}))
	frames := distinctWindows(append(rows, rows...))

	run := func(ownerJoins bool) *Front {
		var us []*Unit
		for i, name := range []string{"rf", "kmeans", "cnn"} {
			cfg := detectors[name]
			cfg.Name, cfg.Labeler = name, spoofLabeler
			cfg.Model = &slowModel{inner: cfg.Model, delay: 200 * time.Microsecond}
			if ownerJoins && i == 1 {
				cfg.OnWindow = func(*WindowResult) {}
			}
			u := New(cfg)
			if i > 0 && !us[0].Front().Subscribe(u) {
				t.Fatalf("unit %d refused by a fresh front", i)
			}
			us = append(us, u)
		}
		// No Flush: it would join the last window at once. The windows
		// dispatched are the same in both runs, the 500-row one among them.
		f := us[0].Front()
		for _, p := range frames {
			us[0].Feed(p)
			if w := f.inflight; !ownerJoins && w != nil {
				w.done.Wait()
			}
		}
		return f
	}
	helped, alone := run(true), run(false)
	a, b := helped.MemBytes(), alone.MemBytes()
	if helped.ownerChunks == 0 || alone.ownerChunks != 0 {
		t.Fatalf("the owner classified %d and %d chunks, want some and none", helped.ownerChunks, alone.ownerChunks)
	}
	if a != b {
		t.Fatalf("Front.MemBytes is %d B when the owner claimed chunks and %d B when it did not", a, b)
	}
}
