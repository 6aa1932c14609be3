package telemetry

import (
	"testing"

	"ddoshield/internal/sim"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder(4)
	if cap(r.buf) != 4 || len(r.Events()) != 0 {
		t.Fatalf("fresh recorder: cap=%d len=%d", cap(r.buf), len(r.Events()))
	}
	r.Emit(sim.Second, CatTCP, "retransmit", "devA/eth0", 128)
	ev := r.Events()
	if len(ev) != 1 || ev[0].Name != "retransmit" || ev[0].Time != sim.Second || ev[0].Value != 128 {
		t.Fatalf("events = %+v", ev)
	}
}

// TestRecorderWraparound fills the ring well past capacity and asserts
// oldest-event eviction order, ascending Seq, and stable sim.Time
// ordering — the flight-recorder contract the exporters rely on.
func TestRecorderWraparound(t *testing.T) {
	const capacity, emitted = 8, 27
	r := NewRecorder(capacity)
	for i := 0; i < emitted; i++ {
		r.Emit(sim.Time(i)*sim.Millisecond, CatContainer, "tick", "c", int64(i))
	}
	if r.Dropped().Value() != emitted-capacity {
		t.Fatalf("dropped = %d, want %d", r.Dropped().Value(), emitted-capacity)
	}
	ev := r.Events()
	if len(ev) != capacity {
		t.Fatalf("retained %d events, want %d", len(ev), capacity)
	}
	for i, e := range ev {
		wantSeq := uint64(emitted - capacity + i)
		if e.Seq != wantSeq {
			t.Fatalf("event %d: seq=%d, want %d (oldest-first eviction order)", i, e.Seq, wantSeq)
		}
		if e.Value != int64(wantSeq) {
			t.Fatalf("event %d: value=%d, want %d", i, e.Value, wantSeq)
		}
		if i > 0 && e.Time < ev[i-1].Time {
			t.Fatalf("sim.Time order violated at %d: %v < %v", i, e.Time, ev[i-1].Time)
		}
	}
}

// TestRecorderDroppedCounter pins the wraparound counter against capacity:
// every emit past the ring size increments telemetry_recorder_dropped_total
// by exactly one.
func TestRecorderDroppedCounter(t *testing.T) {
	const capacity, emitted = 8, 27
	r := NewRecorder(capacity)
	for i := 0; i < emitted; i++ {
		r.Emit(sim.Time(i), CatTCP, "tick", "c", int64(i))
		want := uint64(0)
		if i >= capacity {
			want = uint64(i + 1 - capacity)
		}
		if got := r.Dropped().Value(); got != want {
			t.Fatalf("after emit %d: dropped=%d, want %d", i, got, want)
		}
	}
	if r.Dropped().Value() != emitted-capacity {
		t.Fatalf("dropped = %d, want %d", r.Dropped().Value(), emitted-capacity)
	}
	reg := NewRegistry()
	reg.RegisterCounter(r.Dropped(), "telemetry_recorder_dropped_total")
	for _, s := range reg.Snapshot() {
		if s.Name == "telemetry_recorder_dropped_total" {
			if s.Value != float64(emitted-capacity) {
				t.Fatalf("exported dropped = %v, want %d", s.Value, emitted-capacity)
			}
			return
		}
	}
	t.Fatal("telemetry_recorder_dropped_total not exported")
}

func TestRecorderExactlyFull(t *testing.T) {
	const capacity = 5
	r := NewRecorder(capacity)
	for i := 0; i < capacity; i++ {
		r.Emit(sim.Time(i), CatIDS, "verdict", "u", int64(i))
	}
	if r.Dropped().Value() != 0 {
		t.Fatalf("dropped = %d, want 0 at exact capacity", r.Dropped().Value())
	}
	ev := r.Events()
	for i := range ev {
		if ev[i].Seq != uint64(i) {
			t.Fatalf("seq[%d]=%d", i, ev[i].Seq)
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Emit(0, CatTCP, "x", "y", 0)
	if r.Events() != nil || r.Dropped() != nil {
		t.Fatal("nil recorder must be inert")
	}
}
