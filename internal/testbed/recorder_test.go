package testbed

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"ddoshield/internal/faults"
	"ddoshield/internal/ids"
	"ddoshield/internal/netsim"
)

// TestFlightRecorderSameAcrossWorkers runs a churned, lossy, faulted and
// defended campaign at Domains 3 on one PDES worker and on two, and
// requires the same flight-recorder events, sequence numbers aside. Events
// of different domains at one instant reach the recorder in whichever order
// the workers do, so the events are compared as a multiset; what each one
// says must not depend on that order. A fault event's value is its target's
// own count of that kind, which only the target's domain touches.
func TestFlightRecorderSameAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("two defended campaign runs")
	}
	cfg := Config{
		Seed:         42,
		NumDevices:   12,
		DeviceGroups: 4,
		Domains:      3,
		MeanThink:    700 * time.Millisecond,
		ScanInterval: 100 * time.Millisecond,
		Churn:        ChurnConfig{Enabled: true, MeanUp: 14 * time.Second, MeanDown: time.Second},
		Link:         netsim.LinkConfig{LossProb: 0.01},
		TrunkLink:    netsim.LinkConfig{LossProb: 0.02},
	}
	plan := faults.Random(faults.RandomConfig{Seed: 7, Start: 2 * time.Second, Window: 10 * time.Second, Intensity: 1})
	events := func(workers int) []string {
		c := cfg
		c.PDESWorkers = workers
		tb, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		unit := ids.New(ids.Config{Model: ids.NewThresholdRule(), Window: time.Second, Labeler: tb.Labeler()})
		tb.AttachIDS(unit)
		tb.AttachMitigation(unit, MitigationConfig{})
		tb.Start()
		tb.Injector().Schedule(plan)
		tb.ScheduleAttackWave(6*time.Second, 2*time.Second, tb.DefaultAttackWave(3*time.Second, 1500))
		if err := tb.Run(15 * time.Second); err != nil {
			t.Fatal(err)
		}
		if n := tb.Recorder().Dropped().Value(); n != 0 {
			t.Fatalf("workers=%d: the recorder evicted %d events; which go depends on the order", workers, n)
		}
		var out []string
		for _, e := range tb.Recorder().Events() {
			e.Seq = 0
			out = append(out, fmt.Sprintf("%+v", e))
		}
		slices.Sort(out)
		return out
	}
	one, two := events(1), events(2)
	if !slices.ContainsFunc(one, func(e string) bool { return strings.Contains(e, "Name:crash ") }) {
		t.Fatal("the campaign crashed no device")
	}
	if !slices.Equal(one, two) {
		for i := range min(len(one), len(two)) {
			if one[i] != two[i] {
				t.Fatalf("%d events on one worker, %d on two; first difference:\n  one: %s\n  two: %s", len(one), len(two), one[i], two[i])
			}
		}
		t.Fatalf("%d events on one worker, %d on two", len(one), len(two))
	}
}
