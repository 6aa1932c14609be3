package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// buildPDESModel assembles a synthetic K-domain workload: domain i runs
// streams(i) self-rescheduling local event streams off its own RNG
// substream and periodically posts work into the next domain (ring
// topology), always at least lookahead ahead. Each domain appends to its
// own log, so the concatenated logs capture exactly what executed, when,
// and in what order.
func buildPDESModel(k int, lookahead Time, horizon Time, streams func(i int) int) (*Engine, [][]int64) {
	e := NewEngine(k, lookahead)
	logs := make([][]int64, k)
	for i := 0; i < k; i++ {
		d := e.Domain(i)
		next := e.Domain((i + 1) % k)
		rng := Substream(1234, fmt.Sprintf("pdes-test/%d", i))
		var tick Handler
		tick = func() {
			now := d.Scheduler().Now()
			logs[i] = append(logs[i], int64(now)<<4|int64(i))
			if rng.Bool(0.3) {
				at := now + lookahead + Time(rng.Intn(int(lookahead)))
				j := i
				d.Post(next, at, func() {
					nd := next.Scheduler().Now()
					logs[next.idx] = append(logs[next.idx], int64(nd)<<4|int64(8+j))
				})
			}
			if again := now + Time(1+rng.Intn(int(lookahead/2+1))); again <= horizon {
				d.Scheduler().At(again, tick)
			}
		}
		for s := 0; s < streams(i); s++ {
			d.Scheduler().At(Time(i+s), tick)
		}
	}
	return e, logs
}

// engineRun is everything deterministic a finished engine run reports.
type engineRun struct {
	logs   [][]int64
	fired  []uint64
	stats  []DomainStats
	epochs uint64
	msgs   []uint64
}

// TestEngineDeterministicAcrossWorkers runs each model on 1, 2, 3, K and
// K+3 workers, and once more on 4 workers with one processor (the
// workers' bounded spin must give way, so the run finishes), and requires
// the same logs, fired counts, domain statistics, epochs and message
// matrix every time. The uneven model has more domains than workers, most
// of its load in the last domain (which a helper claims first, so a helper
// often finishes an epoch) and thousands of short epochs: a worker that
// carried a claim across the barrier would run a domain of the next epoch
// against the previous window end, which shows in the domain statistics
// if not in the logs.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		name        string
		k           int
		la, horizon Time
		streams     func(i int) int
	}{
		{"ring", 4, 50, 20_000, func(int) int { return 1 }},
		{"uneven", 7, 10, 100_000, func(i int) int {
			if i == 6 {
				return 12
			}
			return 1 + i%2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) engineRun {
				e, logs := buildPDESModel(tc.k, tc.la, tc.horizon, tc.streams)
				if err := e.Run(tc.horizon, workers); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				r := engineRun{logs: logs, epochs: e.Epochs()}
				for i := 0; i < tc.k; i++ {
					d := e.Domain(i)
					if got := d.Scheduler().Now(); got != tc.horizon {
						t.Fatalf("workers=%d domain %d clock = %v, want %v", workers, i, got, tc.horizon)
					}
					r.fired = append(r.fired, d.Scheduler().Fired())
					r.stats = append(r.stats, d.Stats())
					for j := 0; j < tc.k; j++ {
						r.msgs = append(r.msgs, e.Messages(i, j))
					}
				}
				return r
			}
			want := run(1)
			check := func(mode string, got engineRun) {
				t.Helper()
				switch {
				case !reflect.DeepEqual(got.logs, want.logs):
					t.Fatalf("%s: execution log diverged from serial", mode)
				case !reflect.DeepEqual(got.fired, want.fired):
					t.Fatalf("%s: fired counts %v, want %v", mode, got.fired, want.fired)
				case !reflect.DeepEqual(got.stats, want.stats):
					t.Fatalf("%s: domain stats %+v, want %+v", mode, got.stats, want.stats)
				case got.epochs != want.epochs:
					t.Fatalf("%s: epochs %d, want %d", mode, got.epochs, want.epochs)
				case !reflect.DeepEqual(got.msgs, want.msgs):
					t.Fatalf("%s: message matrix %v, want %v", mode, got.msgs, want.msgs)
				}
			}
			for _, w := range []int{2, 3, tc.k, tc.k + 3} {
				check(fmt.Sprintf("workers=%d", w), run(w))
			}
			prev := runtime.GOMAXPROCS(1)
			got := run(4)
			runtime.GOMAXPROCS(prev)
			check("workers=4 at GOMAXPROCS(1)", got)
			var total int
			for _, l := range want.logs {
				total += len(l)
			}
			if total < 1000 || want.epochs < 200 {
				t.Fatalf("model too small to be meaningful: %d events in %d epochs", total, want.epochs)
			}
		})
	}
}

// TestEngineMergeOrder pins the deterministic merge rule: same-instant
// cross-domain messages execute ordered by sender domain index, then by
// each sender's posting sequence.
func TestEngineMergeOrder(t *testing.T) {
	e := NewEngine(3, 10)
	var got []string
	deliver := func(tag string) Handler { return func() { got = append(got, tag) } }
	// Post from domains 2 and 1 (reverse index order, interleaved seq) for
	// the same arrival instant; add a later instant to check time ordering.
	e.Domain(2).Post(e.Domain(0), 100, deliver("d2s0"))
	e.Domain(1).Post(e.Domain(0), 100, deliver("d1s0"))
	e.Domain(2).Post(e.Domain(0), 100, deliver("d2s1"))
	e.Domain(1).Post(e.Domain(0), 50, deliver("d1-early"))
	if err := e.Run(200, 1); err != nil {
		t.Fatal(err)
	}
	want := []string{"d1-early", "d1s0", "d2s0", "d2s1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order = %v, want %v", got, want)
	}
}

// rendezvous makes the other domain of a two-domain engine hold its window
// open from instant at until the event that calls the returned function
// has started, so that with two workers the two domains' windows run on
// different goroutines: the caller's and the helper's. Which of the two
// claims domain 0 is up to the Go scheduler, so a test that needs the
// helper to run a given domain's window runs both arrangements.
func rendezvous(e *Engine, other int, at Time) (arrived func()) {
	var flag atomic.Bool
	e.Domain(other).Scheduler().At(at, func() {
		for !flag.Load() {
			runtime.Gosched()
		}
	})
	return func() { flag.Store(true) }
}

// checkWindowFault arms a fault on a fresh two-domain engine and requires
// that it ends the run the same way on any worker count — Run returns an
// error naming the domain the fault happened in — and leaves no error
// behind for the next Run. With two workers the other domain's window is
// held open until the fault's event starts (rendezvous), so the fault
// happens on whichever goroutine did not claim the other domain.
func checkWindowFault(t *testing.T, domain int, arm func(e *Engine, arrived func())) {
	t.Helper()
	for _, workers := range []int{1, 2} {
		e := NewEngine(2, 100)
		arrived := func() {}
		if workers > 1 {
			arrived = rendezvous(e, 1-domain, 0)
		}
		arm(e, arrived)
		err := e.Run(1000, workers)
		want := fmt.Sprintf("domain %d window panic", domain)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("workers=%d: Run returned %v, want an error containing %q", workers, err, want)
		}
		if err := e.Run(2000, workers); err != nil {
			t.Fatalf("workers=%d: the next Run returned %v", workers, err)
		}
	}
}

// TestEnginePostViolationPanics: a Post closer than the lookahead panics,
// and Run reports that panic as an error of the posting domain.
func TestEnginePostViolationPanics(t *testing.T) {
	checkWindowFault(t, 0, func(e *Engine, arrived func()) {
		e.Domain(0).Scheduler().At(0, func() {
			arrived()
			e.Domain(0).Post(e.Domain(1), 10, func() {}) // < window end
		})
	})
}

// TestEngineParallelWindowPanicReported: a panicking model event is
// reported as an error of its domain. The panic is raised in each domain in
// turn while the other holds its window open, so in one of the two the
// window that panics runs on the helper, not on Run's caller.
func TestEngineParallelWindowPanicReported(t *testing.T) {
	for _, domain := range []int{1, 0} {
		checkWindowFault(t, domain, func(e *Engine, arrived func()) {
			e.Domain(domain).Scheduler().At(5, func() {
				arrived()
				panic("boom")
			})
		})
	}
}

func TestEngineRequiresLookahead(t *testing.T) {
	e := NewEngine(2, 0)
	if err := e.Run(100, 1); err == nil {
		t.Fatal("Run with zero lookahead should fail")
	}
}

// TestEngineMultiRun checks messages in flight across a Run boundary are
// neither lost nor reordered: a ping-pong spanning two RunFor calls ends
// with the same totals as one long run.
func TestEngineMultiRun(t *testing.T) {
	build := func() (*Engine, *int) {
		e := NewEngine(2, 25)
		n := new(int)
		var ping, pong Handler
		ping = func() {
			*n++
			e.Domain(0).Post(e.Domain(1), e.Domain(0).Scheduler().Now()+25, pong)
		}
		pong = func() {
			*n++
			e.Domain(1).Post(e.Domain(0), e.Domain(1).Scheduler().Now()+25, ping)
		}
		e.Domain(0).Scheduler().At(0, ping)
		return e, n
	}
	one, n1 := build()
	if err := one.Run(10_000, 1); err != nil {
		t.Fatal(err)
	}
	two, n2 := build()
	if err := two.Run(4_987, 2); err != nil {
		t.Fatal(err)
	}
	if err := two.Run(10_000, 2); err != nil {
		t.Fatal(err)
	}
	if *n1 != *n2 || *n1 == 0 {
		t.Fatalf("split run executed %d events, single run %d", *n2, *n1)
	}
}

// TestEnginePostKeyedMergesInKeyOrder: keyed deliveries posted from two
// domains for one instant fire on the receiver in key order — not in the
// merge's (sender, send order) — after the instant's normal events, which
// do fire in (sender, send order) behind the receiver's own, whatever
// instants the senders posted for in between.
func TestEnginePostKeyedMergesInKeyOrder(t *testing.T) {
	const at = 100
	for _, workers := range []int{1, 3} {
		e := NewEngine(3, 25)
		var order []string
		note := func(name string) Handler { return func() { order = append(order, name) } }
		rx := e.Domain(2)
		// Domain 0 sends the high keys first, domain 1 the low ones, and the
		// receiver holds a keyed event of its own in between.
		e.Domain(0).Scheduler().At(0, func() {
			e.Domain(0).Post(rx, at+1, note("d0-later"))
			e.Domain(0).PostKeyed(rx, at, 6, note("d0-key-6"))
			e.Domain(0).Post(rx, at, note("d0-norm-a"))
			e.Domain(0).PostKeyed(rx, at, 2, note("d0-key-2"))
			e.Domain(0).Post(rx, at, note("d0-norm-b"))
		})
		e.Domain(1).Scheduler().At(0, func() {
			e.Domain(1).Post(rx, at+1, note("d1-later"))
			e.Domain(1).PostKeyed(rx, at, 5, note("d1-key-5"))
			e.Domain(1).Post(rx, at, note("d1-norm"))
			e.Domain(1).PostKeyed(rx, at, 1, note("d1-key-1"))
		})
		rx.Scheduler().At(0, func() {
			rx.PostKeyed(rx, at, 3, func() {
				order = append(order, "rx-key-3")
				rx.Scheduler().At(at, note("rx-late"))
			})
		})
		rx.Scheduler().At(at, note("rx-norm"))
		if err := e.Run(1000, workers); err != nil {
			t.Fatal(err)
		}
		wantOrder(t, order, []string{
			"rx-norm", "d0-norm-a", "d0-norm-b", "d1-norm",
			"d1-key-1", "d0-key-2", "rx-key-3", "d1-key-5", "d0-key-6", "rx-late",
			"d0-later", "d1-later",
		})
	}
}

// TestEngineCrossDomainMessageAllocFree guards the steady-state
// cross-domain fast path — Post (pooled message, reused outbox), barrier
// merge (pooled scheduler nodes), delivery — and the engine's own timing
// and counters: a Run allocates only its worker crew, so a RunFor carrying
// 100x the ping-pong traffic makes the same number of allocations. The counters must have seen every epoch, message and event.
func TestEngineCrossDomainMessageAllocFree(t *testing.T) {
	e := NewEngine(2, 25)
	var ping, pong Handler
	ping = func() {
		e.Domain(0).Post(e.Domain(1), e.Domain(0).Scheduler().Now()+25, pong)
	}
	pong = func() {
		e.Domain(1).Post(e.Domain(0), e.Domain(1).Scheduler().Now()+25, ping)
	}
	e.Domain(0).Scheduler().At(0, ping)
	// Warm pools: message structs, outbox slices, scheduler nodes.
	if err := e.RunFor(10_000, 1); err != nil {
		t.Fatal(err)
	}
	runFor := func(d Time) float64 {
		return testing.AllocsPerRun(100, func() {
			if err := e.RunFor(d, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := runFor(1_000), runFor(100_000)
	if short != long {
		t.Fatalf("RunFor allocates %.1f for 1000 ns of ping-pong, %.1f for 100000 ns: the message path allocates", short, long)
	}
	st0, st1 := e.Domain(0).Stats(), e.Domain(1).Stats()
	if st0.MsgsOut == 0 || st0.MsgsOut != st1.MsgsIn || st1.MsgsOut != st0.MsgsIn {
		t.Fatalf("message accounting inconsistent: %+v %+v", st0, st1)
	}
	if e.Messages(0, 1) != st0.MsgsOut || e.Messages(1, 0) != st1.MsgsOut || e.Messages(0, 0) != 0 {
		t.Fatalf("message matrix [0->1 %d, 1->0 %d, 0->0 %d] disagrees with %+v %+v",
			e.Messages(0, 1), e.Messages(1, 0), e.Messages(0, 0), st0, st1)
	}
	// Every epoch runs one window per domain, and a window of ping-pong
	// fires at most one event on each side.
	epochs := e.Epochs()
	if st0.BarrierWaits != epochs || st1.BarrierWaits != epochs || st0.MaxWindowEvents != 1 || st1.MaxWindowEvents != 1 {
		t.Fatalf("%d epochs, stats %+v %+v", epochs, st0, st1)
	}
	// Windows are the 25 ns lookahead wide, except where a RunFor's
	// horizon cuts one short.
	if w := e.Windows(); w.Min < 1 || w.Max != 25 || w.Mean <= float64(w.Min) || w.Mean > 25 {
		t.Fatalf("window widths %+v, want at most the 25 ns lookahead", w)
	}
	for i := 0; i < 2; i++ {
		if w := e.Domain(i).Wall(); w.ExecNs <= 0 || w.WaitNs < 0 {
			t.Fatalf("domain %d wall clock %+v", i, w)
		}
	}
	if e.MergeNs() <= 0 {
		t.Fatalf("merge wall clock %d ns", e.MergeNs())
	}
}

// TestHorizonLagRunningMax pins the DomainStats.HorizonLag regression:
// the stat must report the maximum lag across every window, not the last
// window's value. Domain 1 trails the frontier by 44 in the first epoch
// but finishes the final window right at its edge (lag 0); the old
// last-window-only accounting reported 0, which made the stat useless for
// post-run straggler diagnosis.
func TestHorizonLagRunningMax(t *testing.T) {
	e := NewEngine(2, 50)
	noop := func() {}
	e.Domain(0).Scheduler().At(0, noop)
	e.Domain(0).Scheduler().At(1000, noop)
	e.Domain(1).Scheduler().At(5, noop)
	e.Domain(1).Scheduler().At(1049, noop)
	if err := e.Run(2000, 1); err != nil {
		t.Fatal(err)
	}
	// Epoch 1 window is [0,50): domain 1 ends at clock 5, lag 49-5 = 44.
	// Epoch 2 window is [1000,1050): domain 1 ends at 1049, lag 0.
	if got := e.Domain(1).Stats().HorizonLag; got != 44 {
		t.Fatalf("domain 1 HorizonLag = %d, want running max 44", got)
	}
	// Domain 0 lags 49 in both windows.
	if got := e.Domain(0).Stats().HorizonLag; got != 49 {
		t.Fatalf("domain 0 HorizonLag = %d, want 49", got)
	}
}

func TestEngineIdleDomains(t *testing.T) {
	e := NewEngine(4, 10)
	fired := 0
	e.Domain(0).Scheduler().At(7, func() { fired++ })
	if err := e.Run(100, 4); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	for i := 0; i < 4; i++ {
		if now := e.Domain(i).Scheduler().Now(); now != 100 {
			t.Fatalf("domain %d clock %v, want 100", i, now)
		}
	}
}

// TestEngineObserve: an observer runs once per period, up to and including
// the horizon, over several Runs, and sees every event at or before its
// instant fired in every domain, and none a lookahead or more after it.
func TestEngineObserve(t *testing.T) {
	for _, workers := range []int{1, 2} {
		e := NewEngine(2, 10)
		var fired [2]atomic.Int64
		for i := range 2 {
			s := e.Domain(i).Scheduler()
			var tick Handler
			tick = func() {
				fired[i].Add(1)
				s.After(7, tick)
			}
			s.At(0, tick)
		}
		var seen []Time
		e.Observe(100, func(at Time) {
			seen = append(seen, at)
			for i := range fired {
				// Ticks fire at 0, 7, 14, ...: at/7+1 of them at or before
				// at, (at+9)/7+1 before at plus the 10 ns lookahead.
				if n := fired[i].Load(); n < int64(at/7+1) || n > int64((at+9)/7+1) {
					t.Fatalf("workers=%d: at %v domain %d fired %d events", workers, at, i, n)
				}
			}
		})
		if err := e.Run(1000, workers); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(1250, workers); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 12 || seen[0] != 100 || seen[11] != 1200 {
			t.Fatalf("workers=%d: observed at %v, want every 100 from 100 to 1200", workers, seen)
		}
	}
}
