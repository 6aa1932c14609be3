package ids

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ddoshield/internal/dataset"
	"ddoshield/internal/features"
	"ddoshield/internal/ml"
	"ddoshield/internal/ml/cnn"
	"ddoshield/internal/ml/forest"
	"ddoshield/internal/ml/kmeans"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

// windowsOf builds one window per entry of sizes, each in its own second:
// spoofed SYNs (half of them one repeated segment, as a flood sends) among
// benign segments, the SYN share alternating low and high from window to
// window so that window-level models see both kinds.
func windowsOf(rng *rand.Rand, sizes []int) []*packet.Packet {
	var out []*packet.Packet
	for w, n := range sizes {
		flood := 0.1 + 0.7*float64(w%2) + 0.2*rng.Float64()
		for i := 0; i < n; i++ {
			at := sim.Time(w)*sim.Second + sim.Time(i)*900*sim.Microsecond
			switch {
			case rng.Float64() >= flood:
				out = append(out, benignFrame(at, uint32(rng.Intn(50))))
			case rng.Intn(2) == 0:
				out = append(out, synFrame(at, 7, 4242))
			default:
				out = append(out, synFrame(at, byte(rng.Intn(250)), rng.Uint32()))
			}
		}
	}
	return out
}

// perPacket scores frames the way onWindow did before it batched: one
// vector and one Predict per packet, in arrival order.
func perPacket(model ml.Classifier, scaler *dataset.StandardScaler, frames []*packet.Packet) []WindowResult {
	var out []WindowResult
	e := features.NewExtractor(time.Second, func(w *features.Window) {
		res := WindowResult{Start: w.Start, Packets: len(w.Packets)}
		srcs, flows := map[packet.Addr]bool{}, map[trace.Flow]bool{}
		for i := range w.Packets {
			b := &w.Packets[i]
			truth := spoofLabeler(b)
			res.TruthMalicious += truth
			x := features.AppendVector(nil, b, &w.Stats)
			if scaler != nil {
				scaler.Transform(x)
			}
			pred := model.Predict(x)
			if pred == truth {
				res.Correct++
			}
			if pred != dataset.Malicious {
				continue
			}
			res.PredMalicious++
			if !srcs[b.Src] {
				srcs[b.Src] = true
				res.FlaggedSrcs = append(res.FlaggedSrcs, b.Src)
			}
			f := trace.Flow{Src: b.Src.Uint32(), Dst: b.Dst.Uint32(), SrcPort: b.SrcPort, DstPort: b.DstPort, Proto: b.Proto}
			if len(res.FlaggedFlows) < maxFlaggedFlows && !flows[f] {
				flows[f] = true
				res.FlaggedFlows = append(res.FlaggedFlows, f)
			}
		}
		res.Accuracy = float64(res.Correct) / float64(res.Packets)
		res.Alert = res.PredMalicious*2 > res.Packets
		out = append(out, res)
	})
	for _, p := range frames {
		e.AddPacket(p)
	}
	e.Flush()
	return out
}

// trainedDetectors fits small versions of the three paper models on
// labelled vectors of frames, plus the threshold rule.
func trainedDetectors(t *testing.T, frames []*packet.Packet) map[string]Config {
	t.Helper()
	ds := dataset.New(features.Names())
	e := features.NewExtractor(time.Second, func(w *features.Window) {
		for i, x := range w.Vectors() {
			ds.Add(x, spoofLabeler(&w.Packets[i]))
		}
	})
	for _, p := range frames {
		e.AddPacket(p)
	}
	e.Flush()
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
	net, _, err := cnn.Train(cnn.Config{Conv1Filters: 8, Conv2Filters: 16, Hidden: 48, Epochs: 2, Seed: 3}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Config{
		"rf":        {Model: ml.OffsetView{Inner: rf, Offset: off}},
		"kmeans":    {Model: km, Scaler: scaler},
		"cnn":       {Model: net, Scaler: scaler},
		"threshold": {Model: NewThresholdRule()},
	}
}

// rowWindows are three windows from second `from` on that stress the
// distinct-row path: 900 packets that are copies of five rows; 400 packets
// that are 307 rows, seven of them told apart by length alone; and a window
// whose frames are too long for a row key (each its own row), some of them
// identical, among keyed ones.
func rowWindows(from sim.Time) []*packet.Packet {
	var out []*packet.Packet
	at := func(w, i int) sim.Time { return from + sim.Time(w)*sim.Second + sim.Time(i)*sim.Millisecond }
	for i := 0; i < 900; i++ {
		switch i % 5 {
		case 0, 1:
			out = append(out, synFrame(at(0, i), byte(i), 4242))
		case 2:
			out = append(out, synFrame(at(0, i), byte(i), 17))
		case 3:
			out = append(out, benignFrame(at(0, i), uint32(i)))
		default:
			out = append(out, synFrame(at(0, i), 7, 99))
		}
	}
	for i := 0; i < 300; i++ {
		if i%3 == 0 {
			// Rows that differ in their length alone.
			p := benignFrame(at(1, i), uint32(i))
			p.Raw = append(p.Raw, make([]byte, i%7)...)
			out = append(out, p)
		}
		out = append(out, synFrame(at(1, i), byte(i), uint32(i)))
	}
	for i := 0; i < 40; i++ {
		p := synFrame(at(2, i), byte(i), uint32(i%4))
		if i%2 == 0 {
			p.Raw = append(p.Raw, make([]byte, 1<<19)...)
		}
		out = append(out, p)
	}
	return out
}

// TestWindowResultsMatchPerPacketPredict pins the distinct-row, chunked
// batch path to the per-packet one for windows below, at and above the
// chunk size, duplication-heavy and all-distinct windows, and rows too long
// to key.
func TestWindowResultsMatchPerPacketPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sizes := []int{1, chunk - 1, chunk, chunk + 1, 1000, 0, 3*chunk + 7}
	// Trained on every size at both SYN shares (seven sizes: the second
	// copy lands on the other parity).
	detectors := trainedDetectors(t, windowsOf(rng, append(sizes, sizes...)))
	frames := append(windowsOf(rng, sizes), rowWindows(sim.Time(len(sizes))*sim.Second)...)
	for name, cfg := range detectors {
		want := perPacket(cfg.Model, cfg.Scaler, frames)
		cfg.Labeler = spoofLabeler
		u := New(cfg)
		for _, p := range frames {
			u.Feed(p)
		}
		u.Flush()
		got := u.Results()
		if len(got) != len(want) || len(want) != 9 {
			t.Fatalf("%s: %d windows, per-packet path %d, want 9", name, len(got), len(want))
		}
		flagged := 0
		for i := range want {
			got[i].CPU = 0
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s window %d (%d packets):\n batch      %+v\n per-packet %+v", name, i, want[i].Packets, got[i], want[i])
			}
			flagged += want[i].PredMalicious
		}
		if flagged == 0 || flagged == len(frames) {
			t.Errorf("%s flagged %d of %d packets: the comparison needs both verdicts", name, flagged, len(frames))
		}
	}

	// No packets, no window.
	u := New(detectors["cnn"])
	u.Flush()
	if len(u.Results()) != 0 {
		t.Fatalf("empty stream produced %d windows", len(u.Results()))
	}
}

// TestCPUCountedOnce feeds windows whose classification dominates the loop
// (the model sleeps before every batch) to a unit that works on two
// goroutines. The unit's CPU is compute, counted once: the windows' goroutines
// report what they spent classifying, the caller what it spent in Feed, Flush
// and the folds, and the time the caller sat waiting for verdicts is nobody's.
// Counting that wait (it is as long as the classification it waits for) would
// double the figure, so the caller's share — CPUTime less what the model
// itself measured inside PredictBatch — must stay far below the model's. The
// per-window figures sum to no more than the unit's, and the meter sees
// exactly what CPUTime reports.
func TestCPUCountedOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := trainedDetectors(t, windowsOf(rng, []int{300, 300}))["cnn"]
	slow := &slowModel{inner: cfg.Model, delay: 2 * time.Millisecond}
	cfg.Model = slow
	frames := windowsOf(rng, []int{1500, 1500, 1500, 1500})
	for _, hooked := range []bool{false, true} {
		slow.inside.Store(0)
		m := &fakeMeter{}
		cfg.Meter = m
		u := New(cfg)
		if hooked {
			u.AddWindowHook(func(*WindowResult) {})
		}
		for _, p := range frames {
			u.Feed(p)
		}
		u.Flush()
		if u.CPUTime() != m.total {
			t.Fatalf("hooked=%v: CPUTime %v, meter %v", hooked, u.CPUTime(), m.total)
		}
		model := time.Duration(slow.inside.Load())
		if caller := u.CPUTime() - model; caller < 0 || caller > model/2 {
			t.Fatalf("hooked=%v: CPUTime %v with %v inside the model leaves the caller %v: the wait for verdicts was counted",
				hooked, u.CPUTime(), model, caller)
		}
		var windows time.Duration
		for _, r := range u.Results() {
			if r.CPU <= 0 {
				t.Fatalf("window at %v reports no CPU", r.Start)
			}
			windows += r.CPU
		}
		if windows > u.CPUTime() || windows < model {
			t.Fatalf("hooked=%v: windows sum to %v; the unit reports %v, the model measured %v", hooked, windows, u.CPUTime(), model)
		}
	}
}
