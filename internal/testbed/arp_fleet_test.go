//go:build !race

// The two fleet regressions count events on one scheduler: there is nothing
// for the race detector to find, and under it they cost 20 s of a package
// that already runs close to the default test timeout.

package testbed

import (
	"testing"
	"time"

	"ddoshield/internal/apps/httpapp"
	"ddoshield/internal/botnet"
	"ddoshield/internal/devices"
	"ddoshield/internal/netsim"
	"ddoshield/internal/sim"
)

// primedFleet is the benchmark's scale shape in miniature: 2000 mostly idle
// HTTP devices behind 8 edge switches with edge servers, all of them
// scannable by a 1 ms scanner, every ARP entry and FDB path primed.
func primedFleet(seed int64) Config {
	fleet := make([]devices.Profile, 0, len(devices.ScaleFleet))
	for _, p := range devices.ScaleFleet {
		p.Video, p.FTP = false, false // edge servers speak HTTP only
		fleet = append(fleet, p)
	}
	return Config{
		Seed:             seed,
		NumDevices:       2000,
		DeviceGroups:     8,
		EdgeServers:      true,
		Profiles:         fleet,
		MeanThink:        60 * time.Second,
		ScanInterval:     time.Millisecond,
		ScannableDevices: 2048,
		TrunkLink:        netsim.LinkConfig{Delay: 5 * sim.Millisecond},
		PrimeARP:         true,
	}
}

// TestPrimedFleetEventsIndependentOfScanLuck is the regression test for the
// benchmark finding that scale50k-pdes' event count was mostly a matter of
// how often the seed's scanner drew one of the nine unused addresses
// 10.0.2.1–9: every such probe had the attacker ARP three times, and every
// request was copied to every host of the fleet. Seed 5's scanner draws them
// about three times as often as seed 3's; with the requests discarded at
// lan0 the two runs must cost the same.
func TestPrimedFleetEventsIndependentOfScanLuck(t *testing.T) {
	var runs [2]fabricTotals
	for i, seed := range []int64{3, 5} {
		tb, err := New(primedFleet(seed))
		if err != nil {
			t.Fatal(err)
		}
		tb.Start()
		if err := tb.Run(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		runs[i] = tb.fabricTotals()
		if tb.InfectedCount() == 0 {
			t.Fatalf("seed %d: the scanner conscripted nothing:\n%s", seed, tb.Summary())
		}
		if runs[i].flooded != 0 {
			t.Fatalf("seed %d: %d frames flooded on a fully primed fabric, want 0:\n%s", seed, runs[i].flooded, tb.Summary())
		}
	}
	a, b := runs[0], runs[1]
	if a.suppressed == 0 || b.suppressed < 2*a.suppressed {
		t.Fatalf("arp-suppressed %d and %d: the two seeds no longer differ in how often they probe unused addresses; pick others", a.suppressed, b.suppressed)
	}
	if lo, hi := min(a.events, b.events), max(a.events, b.events); (hi-lo)*20 > lo {
		t.Fatalf("events %d vs %d: more than 5%% apart", a.events, b.events)
	}
}

// TestPrimedFleetForgedSourceWave is the regression test for the benchmark's
// scale-duration finding: under a SYN flood with forged sources the victim
// ARPs for every address in the spoof range, and each request used to reach
// every host, so cost grew with fleet size times wave length. Nobody owns
// those addresses: lan0 must discard the requests, no switch may flood, and
// an event must buy as many host-sent frames during the wave as before it.
func TestPrimedFleetForgedSourceWave(t *testing.T) {
	const waveAt, waveLen = 2 * time.Second, 3 * time.Second
	tb, err := New(primedFleet(3))
	if err != nil {
		t.Fatal(err)
	}
	tb.Start()
	tb.ScheduleAttack(waveAt, botnet.Command{
		Type: botnet.AttackSYN, Target: addrTServer, Port: httpapp.DefaultPort, Duration: waveLen, PPS: 20,
	})
	if err := tb.Run(waveAt); err != nil {
		t.Fatal(err)
	}
	before := tb.fabricTotals()
	if err := tb.Run(waveLen); err != nil {
		t.Fatal(err)
	}
	after := tb.fabricTotals()

	if after.suppressed-before.suppressed < 100 {
		t.Fatalf("wave did not bite: arp-suppressed %d -> %d:\n%s", before.suppressed, after.suppressed, tb.Summary())
	}
	if after.flooded != before.flooded {
		t.Fatalf("flooded %d -> %d during the wave, want flat", before.flooded, after.flooded)
	}
	perFrameBefore := float64(before.events) / float64(before.hostTx)
	perFrameWave := float64(after.events-before.events) / float64(after.hostTx-before.hostTx)
	if perFrameWave > 1.25*perFrameBefore {
		t.Fatalf("%.1f events per host-sent frame during the wave, %.1f before it: cost is not linear in frames sent",
			perFrameWave, perFrameBefore)
	}
}
