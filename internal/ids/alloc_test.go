//go:build !race

package ids

import (
	"testing"

	"ddoshield/internal/dataset"
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
