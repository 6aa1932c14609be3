package prof

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ddoshield/internal/sim"
)

// TestProfileReadsEngine checks the engine and wall sections come from the
// engine alone: a two-domain ping-pong shows up as window stats, a message
// matrix that agrees with the domains' counters, and one wall row per
// domain.
func TestProfileReadsEngine(t *testing.T) {
	e := sim.NewEngine(2, 25)
	var ping, pong sim.Handler
	ping = func() {
		e.Domain(0).Post(e.Domain(1), e.Domain(0).Scheduler().Now()+25, pong)
	}
	pong = func() {
		e.Domain(1).Post(e.Domain(0), e.Domain(1).Scheduler().Now()+25, ping)
	}
	e.Domain(0).Scheduler().At(0, ping)
	if err := e.RunFor(10_000, 2); err != nil {
		t.Fatal(err)
	}
	ep := BuildEngine(e)
	if ep.Epochs == 0 || ep.Window == nil || ep.Window.MaxNs != 25 {
		t.Fatalf("engine section %+v", ep)
	}
	if len(ep.Cross) != 2 || ep.Cross[0].Count != ep.PerDomain[0].MsgsOut || ep.Cross[1].Count != ep.PerDomain[1].MsgsOut {
		t.Fatalf("message matrix %+v disagrees with %+v", ep.Cross, ep.PerDomain)
	}
	if ep.PerDomain[0].MaxWindowEvents != 1 {
		t.Fatalf("max window events %+v, want 1", ep.PerDomain[0])
	}
	wp := New(e, 0).WallProfile()
	if len(wp.PerDomain) != 2 || wp.PerDomain[0].ExecMS <= 0 {
		t.Fatalf("wall section %+v", wp)
	}
	if serial := New(nil, 0).WallProfile(); len(serial.PerDomain) != 0 || len(serial.Phases) != int(numPhases) {
		t.Fatalf("serial wall section %+v", serial)
	}
}

// TestPhaseAccumulation checks phase timers accumulate across open/close
// cycles and ignore unmatched EndPhase calls.
func TestPhaseAccumulation(t *testing.T) {
	p := New(nil, 0)
	runMS := func() float64 {
		for _, ph := range p.WallProfile().Phases {
			if ph.Phase == "run" {
				return ph.MS
			}
		}
		t.Fatal("WallProfile has no run phase")
		return 0
	}
	p.EndPhase(PhaseRun) // not open: no-op
	if got := runMS(); got != 0 {
		t.Fatalf("unmatched EndPhase recorded %.3f ms", got)
	}
	for i := 0; i < 2; i++ {
		p.StartPhase(PhaseRun)
		time.Sleep(time.Millisecond)
		p.EndPhase(PhaseRun)
	}
	if got := runMS(); got < 2 {
		t.Fatalf("accumulated run phase %.3f ms, want >= 2 ms", got)
	}
}

// TestBuildVirtualDeterministic pins the virtual section's canonical
// ordering: byte-equal JSON for permuted but equal inputs.
func TestBuildVirtualDeterministic(t *testing.T) {
	entities := []Entity{
		{Name: "lan0", Kind: KindSwitch, Domain: 0, Events: 900},
		{Name: "dev00", Kind: KindDevice, Domain: 1, Events: 100},
		{Name: "dev01", Kind: KindDevice, Domain: 2, Events: 300},
		{Name: "trunk0", Kind: KindLink, Domain: -1, Events: 500},
	}
	cross := []CrossLoad{{From: 2, To: 0, Count: 7}, {From: 0, To: 1, Count: 3}}
	a := BuildVirtual(3, entities, cross, 2)
	// Reversed input order: aggregation must not depend on it.
	rev := []Entity{entities[3], entities[2], entities[1], entities[0]}
	b := BuildVirtual(3, rev, []CrossLoad{cross[1], cross[0]}, 2)
	aj, err := (&Profile{Virtual: a}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := (&Profile{Virtual: b}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("virtual profile JSON depends on input order:\n--- a ---\n%s--- b ---\n%s", aj, bj)
	}
	if a.TotalEvents != 1800 || a.Entities != 4 {
		t.Fatalf("totals: got %d events over %d entities", a.TotalEvents, a.Entities)
	}
	// Domain attribution excludes the link (Domain -1): 900+100+300 over 3
	// domains, mean ~433.3, max 900 -> imbalance ~2.08.
	if a.ImbalanceIndex < 2.0 || a.ImbalanceIndex > 2.1 {
		t.Fatalf("imbalance index %.3f, want ~2.08", a.ImbalanceIndex)
	}
	if a.TopEntities[0].Name != "lan0" || a.TopEntities[0].XMean != 2.0 {
		t.Fatalf("top entity %+v, want lan0 at 2.0x mean", a.TopEntities[0])
	}
	if a.Cross[0].From != 0 || a.Cross[1].From != 2 {
		t.Fatalf("cross pairs unsorted: %+v", a.Cross)
	}
}

// TestReportRendersFindings exercises the digest over a fully populated
// profile: the table renders every section and the findings name the
// straggler, the hot entity and the core-switch serialization.
func TestReportRendersFindings(t *testing.T) {
	entities := []Entity{
		{Name: "lan0", Kind: KindSwitch, Domain: 0, Events: 6200},
		{Name: "dev00", Kind: KindDevice, Domain: 1, Events: 800},
		{Name: "dev01", Kind: KindDevice, Domain: 2, Events: 1000},
	}
	p := &Profile{
		Virtual: BuildVirtual(3, entities, []CrossLoad{{From: 1, To: 0, Count: 50}}, 3),
		Engine: &EngineProfile{
			Domains: 3, Epochs: 10, LookaheadNs: 5e6,
			PerDomain: []DomainEngine{
				{Domain: 0, Events: 6200, MsgsIn: 90, MsgsOut: 10},
				{Domain: 1, Events: 800, MsgsIn: 5, MsgsOut: 60},
				{Domain: 2, Events: 1000, MsgsIn: 5, MsgsOut: 40},
			},
			Cross: []CrossLoad{{From: 1, To: 0, Count: 60}, {From: 2, To: 0, Count: 40}},
		},
		Wall: &WallProfile{
			Phases: []PhaseWall{{Phase: "build", MS: 10}, {Phase: "run", MS: 200}},
			PerDomain: []DomainWall{
				{Domain: 0, ExecMS: 180, WaitMS: 2, WaitShare: 0.01},
				{Domain: 1, ExecMS: 20, WaitMS: 140, WaitShare: 0.875},
				{Domain: 2, ExecMS: 30, WaitMS: 130, WaitShare: 0.81},
			},
		},
	}
	r := BuildReport(p)
	out := r.String()
	for _, want := range []string{
		"switch lan0",
		"core-domain switch serializes",
		"domain 1 spent 88% of its epoch wall clock waiting",
		"straggler: domain 0",
		"imbalance",
		"1->0: 60 msgs (60% of 100 total)",
		"campaign phases: build 10.0 ms, run 200.0 ms",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Table has one row per domain with all three sections populated.
	if !strings.Contains(out, "virt events") || !strings.Contains(out, "wait %") {
		t.Errorf("table headers missing:\n%s", out)
	}
	if BuildReport(nil).String() != "" {
		t.Error("nil profile should render empty report")
	}
}
