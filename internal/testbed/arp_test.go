package testbed

import (
	"testing"
	"time"

	"ddoshield/internal/netsim"
	"ddoshield/internal/sim"
)

// fabricTotals is what the fabric has done so far: scheduler events, frames
// flooded and ARP requests suppressed summed over lan0 and the edge switches,
// and frames the hosts themselves put on the wire.
type fabricTotals struct{ events, flooded, suppressed, hostTx uint64 }

func (tb *Testbed) fabricTotals() fabricTotals {
	ft := fabricTotals{events: tb.sched.Fired()}
	for _, sw := range append([]*netsim.Switch{tb.sw}, tb.edgeSws...) {
		_, fld := sw.Stats()
		ft.flooded += fld
		ft.suppressed += sw.ARPSuppressed()
	}
	for _, c := range tb.allContainers() {
		_, _, tx, _ := c.Host().NIC().Stats()
		ft.hostTx += tx
	}
	return ft
}

// TestPrimedFleetDeterminism runs a partly primed fleet — the scanner's /24
// holds 40 primed devices, 80 the attacker must resolve, and the unused
// addresses — serially and on three domains. Edge switches in every domain
// consult the one ARP directory concurrently (run it under -race), and all
// three outcomes of the lookup occur: relayed out one port, flooded because
// lan0 never learned the owner's MAC, discarded.
func TestPrimedFleetDeterminism(t *testing.T) {
	cfg := Config{
		Seed:             9,
		NumDevices:       120,
		DeviceGroups:     4,
		ScannableDevices: 40,
		MeanThink:        time.Second,
		ScanInterval:     5 * time.Millisecond,
		TrunkLink:        netsim.LinkConfig{Delay: 2 * sim.Millisecond},
		PrimeARP:         true,
	}
	runs := requireSameAcrossModes(t, modes(cfg, [2]int{1, 1}, [2]int{3, 0}),
		waves(2*time.Second, 200*time.Millisecond, time.Second, 100, 5*time.Second))
	tb := runs[0].tb
	ft := tb.fabricTotals()
	fwd, _ := tb.edgeSws[0].Stats()
	if ft.suppressed == 0 || ft.flooded == 0 || fwd == 0 || tb.InfectedCount() == 0 {
		t.Fatalf("want suppressed, flooded and relayed requests and a live campaign; got suppressed=%d flooded=%d edge00-forwarded=%d:\n%s",
			ft.suppressed, ft.flooded, fwd, runs[0].summary)
	}
}
