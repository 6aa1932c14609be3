package sim

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(3*Second, func() { order = append(order, 3) })
	s.At(1*Second, func() { order = append(order, 1) })
	s.At(2*Second, func() { order = append(order, 2) })
	if err := s.Run(10 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulerSameInstantFIFO(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Second, func() { order = append(order, i) })
	}
	s.Drain()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-instant events fired out of scheduling order: %v", order)
		}
	}
}

func wantOrder(t *testing.T, got, want []string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestSchedulerKeyedFiresAfterNormalEvents(t *testing.T) {
	s := NewScheduler()
	var order []string
	note := func(name string) Handler { return func() { order = append(order, name) } }
	// Interleave keyed and normal scheduling at the same instant: the keyed
	// events must fire last regardless of when they were scheduled, and in
	// key order — not insertion order — among themselves.
	s.AtKeyed(Second, 7, note("key-7"))
	s.At(Second, note("norm-0"))
	s.AtKeyed(Second, 2, note("key-2"))
	s.At(Second, func() {
		order = append(order, "norm-1")
		// Scheduled from inside a normal event of the instant, a keyed event
		// still takes its key's place, and a normal one still precedes them.
		s.AtKeyed(Second, 5, note("key-5"))
		s.At(Second, note("norm-2"))
	})
	s.AtKeyed(Second, 1<<61, note("key-big"))
	// A later instant must fire after every phase of the earlier one.
	s.At(2*Second, note("next"))
	s.AtKeyed(2*Second, 0, note("next-key-0"))
	s.Drain()
	wantOrder(t, order, []string{"norm-0", "norm-1", "norm-2", "key-2", "key-5", "key-7", "key-big", "next", "next-key-0"})
}

// TestSchedulerLateEventsFollowKeyed pins the rule frame deliveries rely on:
// what a keyed handler schedules for its own instant runs after the LAST
// keyed event of the instant, in scheduling order, and the next instant
// starts in its normal phase again.
func TestSchedulerLateEventsFollowKeyed(t *testing.T) {
	s := NewScheduler()
	var order []string
	note := func(name string) Handler { return func() { order = append(order, name) } }
	s.AtKeyed(Second, 3, note("key-3"))
	s.AtKeyed(Second, 1, func() {
		order = append(order, "key-1")
		s.At(Second, func() {
			order = append(order, "late-0")
			s.At(Second, note("late-2")) // late events beget late events
		})
		s.After(0, note("late-1"))
		s.At(0, note("late-past")) // clamped to now, so late as well
		s.At(2*Second, note("next-norm"))
		s.AtKeyed(2*Second, 9, note("next-key"))
	})
	s.AtKeyed(Second, 2, note("key-2"))
	if err := s.Run(Second); err != nil {
		t.Fatal(err)
	}
	wantOrder(t, order, []string{"key-1", "key-2", "key-3", "late-0", "late-1", "late-past", "late-2"})
	// The clock stands at 1 s with its keyed phase over; the run resumes and
	// the next instant orders normal before keyed again.
	order = nil
	if err := s.Run(3 * Second); err != nil {
		t.Fatal(err)
	}
	wantOrder(t, order, []string{"next-norm", "next-key"})
	// An idle clock advanced by Run is in no instant's keyed phase.
	order = nil
	s.AtKeyed(3*Second, 0, note("key"))
	s.At(3*Second, note("norm"))
	s.Drain()
	wantOrder(t, order, []string{"norm", "key"})
}

func TestSchedulerKeyedPastClampsAndCancels(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.At(2*Second, func() {
		s.AtKeyed(Second, 0, func() {
			if s.Now() != 2*Second {
				t.Errorf("past keyed event fired at %v, want clamp to now (2s)", s.Now())
			}
		})
	})
	ev := s.AtKeyed(3*Second, 0, func() { fired = true })
	ev.Cancel()
	s.Drain()
	if fired {
		t.Fatal("cancelled keyed event fired")
	}
	// Pooled node reuse must not carry the class over: the next normal event
	// allocated from the free list must not inherit keyed ordering.
	var order []string
	s.AtKeyed(5*Second, 0, func() { order = append(order, "keyed") })
	s.At(5*Second, func() { order = append(order, "norm") })
	s.Drain()
	wantOrder(t, order, []string{"norm", "keyed"})
}

func TestSchedulerClockAdvancesToEventTime(t *testing.T) {
	s := NewScheduler()
	var at Time
	s.At(5*Second, func() { at = s.Now() })
	s.Drain()
	if at != 5*Second {
		t.Fatalf("Now() during event = %v, want 5s", at)
	}
}

func TestSchedulerPastSchedulingClamps(t *testing.T) {
	s := NewScheduler()
	s.At(2*Second, func() {
		s.At(1*Second, func() {
			if s.Now() != 2*Second {
				t.Errorf("past event fired at %v, want clamp to now (2s)", s.Now())
			}
		})
	})
	s.Drain()
}

func TestSchedulerHorizonStopsBeforeLaterEvents(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.At(1*Second, func() { fired++ })
	s.At(10*Second, func() { fired++ })
	if err := s.Run(5 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (event past horizon must not fire)", fired)
	}
	if s.Now() != 5*Second {
		t.Fatalf("Now() = %v, want horizon 5s", s.Now())
	}
	// The event past the horizon stays queued for a later run.
	s.Drain()
	if fired != 2 || s.Now() != 10*Second {
		t.Fatalf("after Drain: fired = %d at %v, want 2 at 10s", fired, s.Now())
	}
}

func TestSchedulerEventAtHorizonFires(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.At(5*Second, func() { fired = true })
	if err := s.Run(5 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("event exactly at horizon did not fire")
	}
}

func TestEventCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	ev := s.At(Second, func() { fired = true })
	ev.Cancel()
	s.Drain()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Pending() {
		t.Fatal("Pending() = true after Cancel")
	}
}

func TestSchedulerAfterUsesCurrentInstant(t *testing.T) {
	s := NewScheduler()
	var secondAt Time
	s.At(3*Second, func() {
		s.After(2*time.Second, func() { secondAt = s.Now() })
	})
	s.Drain()
	if secondAt != 5*Second {
		t.Fatalf("After fired at %v, want 5s", secondAt)
	}
}

func TestTickerFiresAtInterval(t *testing.T) {
	s := NewScheduler()
	var times []Time
	s.Every(time.Second, func() { times = append(times, s.Now()) })
	if err := s.Run(5 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(times) != 5 {
		t.Fatalf("ticks = %d, want 5", len(times))
	}
	for i, at := range times {
		if want := Time(i+1) * Second; at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStopHaltsTicks(t *testing.T) {
	s := NewScheduler()
	n := 0
	var tk *Ticker
	tk = s.Every(time.Second, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	if err := s.Run(10 * Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 3 {
		t.Fatalf("ticks after Stop = %d, want 3", n)
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	s := NewScheduler()
	if err := s.RunFor(3 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if err := s.RunFor(2 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if s.Now() != 5*Second {
		t.Fatalf("Now() = %v, want 5s", s.Now())
	}
}

func TestTimeConversions(t *testing.T) {
	tt := FromDuration(1500 * time.Millisecond)
	if tt.Seconds() != 1.5 {
		t.Fatalf("Seconds() = %v, want 1.5", tt.Seconds())
	}
	if tt.Duration() != 1500*time.Millisecond {
		t.Fatalf("Duration() = %v", tt.Duration())
	}
	if got := tt.Add(500 * time.Millisecond); got != 2*Second {
		t.Fatalf("Add = %v, want 2s", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same-seed streams diverged")
		}
	}
}

func TestSubstreamIndependence(t *testing.T) {
	a := Substream(1, "scanner")
	b := Substream(1, "payload")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("substreams look correlated: %d/64 equal draws", same)
	}
}

func TestRNGExpMean(t *testing.T) {
	g := NewRNG(7)
	const n = 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Exp(3.0)
	}
	mean := sum / n
	if mean < 2.8 || mean > 3.2 {
		t.Fatalf("Exp mean = %v, want ~3.0", mean)
	}
}

func TestRNGParetoBounds(t *testing.T) {
	g := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := g.Pareto(100, 1.5)
		if v < 100 {
			t.Fatalf("Pareto variate %v below scale 100", v)
		}
	}
}

func TestRNGUniformRange(t *testing.T) {
	g := NewRNG(11)
	if err := quick.Check(func(lo, span uint8) bool {
		l, h := float64(lo), float64(lo)+float64(span)+1
		v := g.Uniform(l, h)
		return v >= l && v < h
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPick(t *testing.T) {
	g := NewRNG(17)
	choices := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Pick(g, choices)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick never chose some elements: %v", seen)
	}
}

// Property: for any batch of events with arbitrary firing offsets, the
// scheduler fires them in non-decreasing time order.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewScheduler()
		var fired []Time
		for _, off := range offsets {
			at := Time(off) * Millisecond
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
		s.Drain()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
