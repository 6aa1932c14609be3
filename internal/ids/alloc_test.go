//go:build !race

package ids

import (
	"runtime"
	"testing"
	"unsafe"

	"ddoshield/internal/dataset"
	"ddoshield/internal/features"
	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
)

// benignModel clears every packet, so the fold flags no source and the
// count is the pipeline's own.
type benignModel struct{}

func (benignModel) Predict([]float64) int { return dataset.Benign }
func (benignModel) Name() string          { return "benign" }

// TestWindowAllocsIndependentOfSize: what a window allocates — its job, its
// snapshot, its verdicts and its distinct-row buffers — is a constant
// number of allocations, not one per packet or per row. Not built under the
// race detector, which changes what the runtime allocates.
func TestWindowAllocsIndependentOfSize(t *testing.T) {
	perWindow := func(n int) float64 {
		frames := make([]*packet.Packet, n)
		for i := range frames {
			frames[i] = synFrame(0, byte(i), uint32(i))
		}
		u := New(Config{Model: benignModel{}})
		w := 0
		return testing.AllocsPerRun(50, func() {
			for i, p := range frames {
				p.Time = sim.Time(w)*sim.Second + sim.Time(i)*sim.Microsecond
				u.Feed(p)
			}
			u.Flush()
			w++
		})
	}
	small, large := perWindow(chunk/2), perWindow(40*chunk)
	if small != large || large > 8 {
		t.Fatalf("%v allocations for a %d-packet window, %v for %d: want the same constant, at most 8",
			small, chunk/2, large, 40*chunk)
	}
}

// TestFrontWindowAllocsIndependentOfUnits: a window on a front of three
// units costs what it costs on a front of one plus each extra unit's
// verdicts and share of the job slice — never a second snapshot or a second
// set of distinct-row buffers. Counts are allocations per window; bytes
// are what a window allocates, the per-unit allowance being its verdict
// bytes and a little for the job and the timeline's growth.
func TestFrontWindowAllocsIndependentOfUnits(t *testing.T) {
	const n = 40 * chunk
	frames := make([]*packet.Packet, n)
	for i := range frames {
		frames[i] = synFrame(0, byte(i), uint32(i))
	}
	perWindow := func(units int) (allocs, bytes float64) {
		us := make([]*Unit, units)
		for i := range us {
			us[i] = New(Config{Model: benignModel{}})
			if i > 0 && !us[0].Front().Subscribe(us[i]) {
				t.Fatalf("unit %d refused by a fresh front", i)
			}
		}
		w := 0
		window := func() {
			for i, p := range frames {
				p.Time = sim.Time(w)*sim.Second + sim.Time(i)*sim.Microsecond
				us[0].Feed(p)
			}
			us[0].Flush()
			w++
		}
		window() // the chunk buffers' first growth
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			window()
		}
		runtime.ReadMemStats(&after)
		return testing.AllocsPerRun(runs, window), float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	oneAllocs, oneBytes := perWindow(1)
	threeAllocs, threeBytes := perWindow(3)
	snapshot := float64(n * unsafe.Sizeof(features.Basic{}))
	t.Logf("per %d-packet window: one unit %v allocations, %.0f bytes; three units %v, %.0f", n, oneAllocs, oneBytes, threeAllocs, threeBytes)
	if extra := threeAllocs - oneAllocs; extra < 0 || extra > 2*2 {
		t.Errorf("%v allocations per window with one unit, %v with three: want at most two more per extra unit", oneAllocs, threeAllocs)
	}
	if extra := threeBytes - oneBytes; extra > 2*(n+1024) {
		t.Errorf("%.0f bytes per window with one unit, %.0f with three (a snapshot is %.0f): the extra units allocate more than their verdicts",
			oneBytes, threeBytes, snapshot)
	}
	if oneBytes < snapshot {
		t.Fatalf("a window allocates %.0f bytes, less than its %.0f-byte snapshot: the measurement missed it", oneBytes, snapshot)
	}
}
