package ids

import (
	"testing"
	"time"

	"ddoshield/internal/dataset"
	"ddoshield/internal/features"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// thresholdModel flags packets as malicious when the window's
// SYN-no-ACK-ratio feature exceeds a threshold — a stand-in classifier
// with perfectly understood behaviour.
type thresholdModel struct {
	featIdx int
	thr     float64
}

func (m *thresholdModel) Predict(x []float64) int {
	if x[m.featIdx] > m.thr {
		return dataset.Malicious
	}
	return dataset.Benign
}

func (m *thresholdModel) Name() string { return "threshold" }

func (m *thresholdModel) MemoryBytes() int64 { return 16 }

// featIndex finds a feature's vector position by name.
func featIndex(t *testing.T, name string) int {
	t.Helper()
	for i, n := range features.Names() {
		if n == name {
			return i
		}
	}
	t.Fatalf("feature %q not found", name)
	return -1
}

func synFrame(t sim.Time, srcOctet byte, seq uint32) *packet.Packet {
	raw := packet.BuildTCP(packet.MACFromUint64(1), packet.MACFromUint64(2),
		packet.IPv4{TTL: 64, Src: packet.AddrFrom4(10, 0, 200, srcOctet), Dst: packet.AddrFrom4(10, 0, 1, 1)},
		packet.TCP{SrcPort: uint16(1024 + seq%60000), DstPort: 80, Seq: seq, Flags: packet.FlagSYN, Window: 512},
		nil)
	p := new(packet.Packet)
	if err := packet.DecodeInto(p, t, raw); err != nil {
		panic(err)
	}
	return p
}

func benignFrame(t sim.Time, seq uint32) *packet.Packet {
	raw := packet.BuildTCP(packet.MACFromUint64(3), packet.MACFromUint64(2),
		packet.IPv4{TTL: 64, Src: packet.AddrFrom4(10, 0, 0, 5), Dst: packet.AddrFrom4(10, 0, 1, 1)},
		packet.TCP{SrcPort: 40000, DstPort: 80, Seq: seq, Flags: packet.FlagACK | packet.FlagPSH, Window: 512},
		[]byte("data"))
	p := new(packet.Packet)
	if err := packet.DecodeInto(p, t, raw); err != nil {
		panic(err)
	}
	return p
}

// spoofLabeler marks the 10.0.200.0/24 range as malicious.
func spoofLabeler(b *features.Basic) int {
	if b.Src[2] == 200 {
		return dataset.Malicious
	}
	return dataset.Benign
}

func TestUnitDetectsFloodWindows(t *testing.T) {
	u := New(Config{
		Model:   &thresholdModel{featIdx: featIndex(t, "win_syn_noack_ratio"), thr: 5},
		Window:  time.Second,
		Labeler: spoofLabeler,
	})
	// Window 0: benign only. Window 1: flood only. Window 2: benign.
	for i := 0; i < 20; i++ {
		u.Feed(benignFrame(sim.Time(i)*50*sim.Millisecond, uint32(1000+i)))
	}
	for i := 0; i < 100; i++ {
		u.Feed(synFrame(sim.Second+sim.Time(i)*9*sim.Millisecond, byte(i), uint32(i*7919)))
	}
	for i := 0; i < 20; i++ {
		u.Feed(benignFrame(2*sim.Second+sim.Time(i)*50*sim.Millisecond, uint32(2000+i)))
	}
	u.Flush()

	res := u.Results()
	if len(res) != 3 {
		t.Fatalf("windows = %d, want 3", len(res))
	}
	if res[0].Alert || !res[1].Alert || res[2].Alert {
		t.Fatalf("alerts = %v %v %v", res[0].Alert, res[1].Alert, res[2].Alert)
	}
	for i, r := range res {
		if r.Accuracy != 1 {
			t.Fatalf("window %d accuracy = %v (pure windows, perfect model)", i, r.Accuracy)
		}
	}
	if u.AverageAccuracy() != 1 {
		t.Fatalf("AverageAccuracy = %v", u.AverageAccuracy())
	}
	if u.PacketsSeen() != 140 {
		t.Fatalf("PacketsSeen = %d", u.PacketsSeen())
	}
	c := perPacketConfusion(res)
	if c.TP != 100 || c.TN != 40 || c.FP != 0 || c.FN != 0 {
		t.Fatalf("confusion = %+v", c)
	}
}

func TestMixedWindowDropsAccuracy(t *testing.T) {
	// A window containing both classes: the window-level statistical
	// features push the shared stats toward "flood", so the threshold
	// model misclassifies the benign minority — the boundary-second
	// accuracy dip of §IV-D.
	u := New(Config{
		Model:   &thresholdModel{featIdx: featIndex(t, "win_syn_noack_ratio"), thr: 5},
		Window:  time.Second,
		Labeler: spoofLabeler,
	})
	for i := 0; i < 80; i++ {
		u.Feed(synFrame(sim.Time(i)*10*sim.Millisecond, byte(i), uint32(i*7919)))
	}
	for i := 0; i < 20; i++ {
		u.Feed(benignFrame(800*sim.Millisecond+sim.Time(i)*10*sim.Millisecond, uint32(i)))
	}
	u.Flush()
	res := u.Results()
	if len(res) != 1 {
		t.Fatalf("windows = %d", len(res))
	}
	if res[0].Accuracy != 0.8 {
		t.Fatalf("mixed-window accuracy = %v, want 0.8", res[0].Accuracy)
	}
	if u.MinAccuracy() != 0.8 {
		t.Fatalf("MinAccuracy = %v", u.MinAccuracy())
	}
}

func TestUnitWithoutModelRecordsTruth(t *testing.T) {
	u := New(Config{Window: time.Second, Labeler: spoofLabeler})
	u.Feed(synFrame(0, 1, 1))
	u.Feed(benignFrame(100*sim.Millisecond, 2))
	u.Flush()
	res := u.Results()
	if len(res) != 1 || res[0].TruthMalicious != 1 || res[0].PredMalicious != 0 {
		t.Fatalf("results = %+v", res)
	}
}

func TestUnitMetering(t *testing.T) {
	u := New(Config{
		Model:  &thresholdModel{featIdx: 0, thr: 0.5},
		Window: time.Second,
	})
	for i := 0; i < 1000; i++ {
		u.Feed(benignFrame(sim.Time(i)*sim.Millisecond, uint32(i)))
	}
	u.Flush()
	if u.CPUTime() <= 0 {
		t.Fatal("no CPU attributed")
	}
	if u.MemBytes() < 1000*40 {
		t.Fatalf("MemBytes = %d, must include window buffer", u.MemBytes())
	}
}

type fakeMeter struct{ total time.Duration }

func (f *fakeMeter) AddCPU(d time.Duration) { f.total += d }

func TestUnitMirrorsCPUToMeter(t *testing.T) {
	m := &fakeMeter{}
	u := New(Config{Model: &thresholdModel{featIdx: 0, thr: 0.5}, Meter: m})
	for i := 0; i < 100; i++ {
		u.Feed(benignFrame(sim.Time(i)*sim.Millisecond, uint32(i)))
	}
	u.Flush()
	if m.total != u.CPUTime() {
		t.Fatalf("meter %v != unit %v", m.total, u.CPUTime())
	}
}

func TestScalerApplied(t *testing.T) {
	// A scaler that shifts the threshold feature proves Transform runs:
	// with the identity scaler the model alerts; with a centering scaler
	// that maps everything to 0 it never does.
	idx := featIndex(t, "win_syn_noack_ratio")
	sc := &dataset.StandardScaler{
		Mean: make([]float64, features.NumFeatures()),
		Std:  make([]float64, features.NumFeatures()),
	}
	for i := range sc.Std {
		sc.Std[i] = 1
	}
	sc.Mean[idx] = 1e9 // giant shift: feature goes hugely negative
	u := New(Config{
		Model:  &thresholdModel{featIdx: idx, thr: 5},
		Scaler: sc,
		Window: time.Second,
	})
	for i := 0; i < 50; i++ {
		u.Feed(synFrame(sim.Time(i)*10*sim.Millisecond, byte(i), uint32(i)))
	}
	u.Flush()
	if u.Results()[0].Alert {
		t.Fatal("scaler not applied before prediction")
	}
}

func TestOnWindowCallbackAndFlaggedSrcs(t *testing.T) {
	var got []*WindowResult
	u := New(Config{
		Model:    &thresholdModel{featIdx: featIndex(t, "win_syn_noack_ratio"), thr: 5},
		Window:   time.Second,
		Labeler:  spoofLabeler,
		OnWindow: func(r *WindowResult) { got = append(got, r) },
	})
	for i := 0; i < 50; i++ {
		u.Feed(synFrame(sim.Time(i)*10*sim.Millisecond, byte(i%10), uint32(i*999)))
	}
	u.Flush()
	if len(got) != 1 {
		t.Fatalf("OnWindow fired %d times", len(got))
	}
	w := got[0]
	if !w.Alert {
		t.Fatal("flood window not alerted")
	}
	if len(w.FlaggedSrcs) != 10 {
		t.Fatalf("FlaggedSrcs = %d distinct, want 10", len(w.FlaggedSrcs))
	}
	seen := map[[4]byte]bool{}
	for _, src := range w.FlaggedSrcs {
		if seen[src] {
			t.Fatal("duplicate flagged source")
		}
		seen[src] = true
	}
}
