package testbed

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ddoshield/internal/faults"
	"ddoshield/internal/netsim"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/telemetry/prof"
)

// tracedCampaign is the standard determinism scenario: scan/infect, an
// attack wave against the TServer and benign traffic throughout on a
// 12-device, 4-group fleet. It traces enough flows that spans cross domain
// boundaries, with a ring large enough that nothing is evicted.
func tracedCampaign() Config {
	return Config{
		Seed:              42,
		NumDevices:        12,
		DeviceGroups:      4,
		MeanThink:         700 * time.Millisecond,
		TraceSampleRate:   0.2,
		TraceSpanCapacity: 1 << 20,
	}
}

// tracedWaves drives tracedCampaign (and its faulted variant).
var tracedWaves = waves(8*time.Second, 2*time.Second, 4*time.Second, 150, 25*time.Second)

// manyDomains is the widest member of the determinism matrices: one domain
// per CPU, at least 4 so multi-worker merge paths execute even on small
// builders.
func manyDomains() int { return max(4, runtime.NumCPU()) }

// TestPDESDeterminism is the tentpole regression test: the same seeded
// scenario run serially, with Domains=2, and with Domains=NumCPU (at
// least 4) must produce byte-identical Summary output, Prometheus
// snapshots, canonical span files and virtual-load attributions. Every
// run keeps its profile: each partitioned run has one wall-clock row per
// domain, and the engine section — window widths and the cross-domain
// message matrix included — does not depend on the worker count. Run under
// -race in CI, it also proves the parallel engine's synchronization is
// sound.
func TestPDESDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-campaign determinism matrix is slow")
	}
	cfgs := modes(tracedCampaign(),
		[2]int{1, 1},
		[2]int{2, 0}, // two domains, workers defaulted
		[2]int{2, 1}, // parallel plumbing, serial window execution
		[2]int{manyDomains(), 0},
	)
	runs := requireSameAcrossModes(t, cfgs, tracedWaves)
	if runs[0].spans == "" {
		t.Fatal("serial baseline produced no trace spans")
	}
	engines := make([]string, len(runs))
	for i, run := range runs {
		p := run.tb.Profile()
		domains := cfgs[i].Domains
		if len(p.Wall.Phases) == 0 {
			t.Fatalf("domains=%d: profile has no wall-clock phases", domains)
		}
		if domains == 1 {
			if p.Engine != nil || len(p.Wall.PerDomain) != 0 {
				t.Fatalf("serial run has an engine section: %+v, %+v", p.Engine, p.Wall.PerDomain)
			}
			continue
		}
		if len(p.Wall.PerDomain) != domains {
			t.Fatalf("domains=%d: %d wall-clock rows", domains, len(p.Wall.PerDomain))
		}
		if p.Engine == nil || p.Engine.Window == nil || len(p.Engine.Cross) == 0 {
			t.Fatalf("domains=%d: engine section incomplete: %+v", domains, p.Engine)
		}
		j, err := (&prof.Profile{Engine: p.Engine}).JSON()
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = string(j)
	}
	if engines[1] != engines[2] {
		t.Fatalf("engine section depends on the worker count:\n--- workers=0 ---\n%s--- workers=1 ---\n%s", engines[1], engines[2])
	}
}

// TestPDESEdgeServerDeterminism pins the scaled-scenario topology (edge
// switches + group-local HTTP servers) to the same byte-identity bar.
// The attack wave matters: flood packets from bots in different domains
// converge on the core switch at identical instants, which is exactly
// the same-time cross-domain collision keyed delivery events put in one
// order. Without that order this scenario diverges (switch MAC learning is
// arrival-order sensitive).
func TestPDESEdgeServerDeterminism(t *testing.T) {
	cfg := Config{
		Seed:         7,
		NumDevices:   16,
		DeviceGroups: 4,
		EdgeServers:  true,
		MeanThink:    400 * time.Millisecond,
	}
	requireSameAcrossModes(t, modes(cfg, [2]int{1, 0}, [2]int{3, 0}, [2]int{5, 0}),
		waves(6*time.Second, 2*time.Second, 4*time.Second, 200, 20*time.Second))
}

// TestSerialBuildByteIdentity pins the parallel-construction contract: a
// campaign on a topology built with the per-group goroutine fan-out must
// be byte-identical to one built group after group on one goroutine —
// same MACs, same link indices, same registration order, hence the same
// artifacts after identical traffic. The flat fleet is the one-group plan:
// its single stage is filled inline either way, through the same path.
func TestSerialBuildByteIdentity(t *testing.T) {
	for _, groups := range []int{1, 4} {
		sequential := Config{
			Seed:         11,
			NumDevices:   16,
			DeviceGroups: groups,
			MeanThink:    500 * time.Millisecond,
			Domains:      2,
			serialBuild:  true,
		}
		staged := sequential
		staged.serialBuild = false
		requireSameAcrossModes(t, []Config{sequential, staged},
			waves(4*time.Second, time.Second, 2*time.Second, 100, 12*time.Second))
	}
}

// TestWorkersDefault pins the worker default: with PDESWorkers unset a
// partitioned testbed runs one worker per domain up to the cores the
// process may use, an explicit PDESWorkers wins, and serial runs report 1.
func TestWorkersDefault(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ domains, workers, want int }{
		{1, 0, 1},
		{1, 8, 1},
		{2, 0, min(2, cores)},
		{4 * cores, 0, cores},
		{4, 3, 3},
		{2, 4 * cores, 4 * cores},
	} {
		tb, err := New(Config{Seed: 1, NumDevices: 4, Domains: tc.domains, PDESWorkers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := tb.Workers(); got != tc.want {
			t.Errorf("Domains=%d PDESWorkers=%d on %d cores: Workers() = %d, want %d",
				tc.domains, tc.workers, cores, got, tc.want)
		}
	}
}

// TestPDESConfigValidation pins the validation surface after the
// partitioned-mode gates were lifted: churn, fault plans and lossy links
// with Domains=2 must construct AND run (they were hard errors before),
// while genuinely inconsistent configs still fail.
func TestPDESConfigValidation(t *testing.T) {
	mustRun := func(label string, cfg Config, plans ...faults.Plan) {
		t.Helper()
		tb, err := New(cfg)
		if err != nil {
			t.Fatalf("%s with Domains=2 rejected: %v", label, err)
		}
		tb.Start()
		for _, p := range plans {
			tb.Injector().Schedule(p)
		}
		if err := tb.Run(3 * time.Second); err != nil {
			t.Fatalf("%s with Domains=2 failed to run: %v", label, err)
		}
	}
	var plan faults.Plan
	plan.Add(faults.Event{Kind: faults.LinkFlap, At: time.Second, Duration: time.Second, Targets: []string{"dev00*"}})
	mustRun("churn", Config{
		Seed: 1, NumDevices: 4, Domains: 2,
		Churn: ChurnConfig{Enabled: true, MeanUp: time.Second, MeanDown: 500 * time.Millisecond},
	})
	mustRun("fault plan", Config{Seed: 2, NumDevices: 4, Domains: 2}, plan)
	mustRun("lossy links", Config{
		Seed: 3, NumDevices: 4, Domains: 2,
		Link:      netsim.LinkConfig{LossProb: 0.05},
		TrunkLink: netsim.LinkConfig{LossProb: 0.05},
	})
	if _, err := New(Config{EdgeServers: true}); err == nil {
		t.Fatal("EdgeServers without DeviceGroups should be rejected")
	}
	// The engine's K×K tables would not fit: an error, not an OOM kill.
	if _, err := New(Config{NumDevices: 4, Domains: MaxDomains + 1}); err == nil {
		t.Fatal("Domains > MaxDomains not rejected")
	}
	if _, err := New(Config{NumDevices: 4, Domains: 100_000}); err == nil {
		t.Fatal("Domains = 100000 not rejected")
	}
}

// chaosPlan is the fault plan of the faulted determinism campaign, sized
// for a 25 s run: a flap and an impairment window on devices (per-side
// sub-events in their owning domains), a crash loop whose window holds one
// kill, and one that fights the device's supervisor.
func chaosPlan() faults.Plan {
	var p faults.Plan
	p.Add(faults.Event{
		Kind: faults.LinkFlap, At: 6 * time.Second, Duration: 2 * time.Second,
		Targets: []string{"dev00*", "dev01*"},
	})
	p.Add(faults.Event{
		Kind: faults.LinkImpair, At: 10 * time.Second, Duration: 8 * time.Second,
		Targets: []string{"dev*"},
		Impair:  netsim.Impairments{LossProb: 0.05, CorruptProb: 0.05, DupProb: 0.02},
	})
	p.Add(faults.Event{
		Kind: faults.CrashLoop, At: 14 * time.Second, Duration: time.Second,
		Every: time.Minute, Targets: []string{"dev02*"},
	})
	p.Add(faults.Event{
		Kind: faults.CrashLoop, At: 15 * time.Second, Duration: 4 * time.Second,
		Every: time.Second, Targets: []string{"dev03*"},
	})
	return p
}

// withChaos arms the chaos fault plan right after Start and hands the
// testbed on to drive (whose own Start is then a no-op).
func withChaos(drive func(*testing.T, *Testbed)) func(*testing.T, *Testbed) {
	return func(t *testing.T, tb *Testbed) {
		t.Helper()
		tb.Start()
		tb.Injector().Schedule(chaosPlan())
		drive(t, tb)
	}
}

// faultedCampaign is tracedCampaign with the chaos stack's configuration
// enabled — device churn (mean up-time meanUp) and random loss on both the
// access links and the cross-domain trunks; its drive adds the fault plan
// (withChaos).
func faultedCampaign(meanUp time.Duration) Config {
	cfg := tracedCampaign()
	cfg.Churn = ChurnConfig{Enabled: true, MeanUp: meanUp, MeanDown: time.Second}
	cfg.Link = netsim.LinkConfig{LossProb: 0.01}
	cfg.TrunkLink = netsim.LinkConfig{LossProb: 0.02}
	return cfg
}

// TestPDESFaultedCampaignDeterminism is the acceptance regression test for
// fault injection under the parallel engine: a campaign with a fault plan
// of flaps, impairments and crash loops, device churn, and lossy access +
// trunk links must produce byte-identical artifacts across Domains ∈
// {1, 2, NumCPU}. Run under
// -race in CI, it also proves every fault sub-event executes in its owning
// domain.
func TestPDESFaultedCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted determinism matrix is slow")
	}
	runs := requireSameAcrossModes(t, modes(faultedCampaign(8*time.Second),
		[2]int{1, 1}, [2]int{2, 0}, [2]int{manyDomains(), 0}), withChaos(tracedWaves))
	for _, kind := range []string{" crash=", " link-flap=", " link-impair="} {
		if !strings.Contains(runs[0].summary, kind) {
			t.Fatalf("faulted baseline injected no%s:\n%s", strings.TrimSuffix(kind, "="), runs[0].summary)
		}
	}
	if runs[0].spans == "" {
		t.Fatal("faulted baseline produced no trace spans")
	}
}

// TestPDESEngineTelemetry checks the engine's and every domain's execution
// counters reflect a real partitioned run.
func TestPDESEngineTelemetry(t *testing.T) {
	tb, err := New(Config{Seed: 9, NumDevices: 6, DeviceGroups: 3, Domains: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := tb.Engine()
	if e == nil || e.NumDomains() != 3 || e.Lookahead() <= 0 {
		t.Fatalf("partitioned testbed must expose a 3-domain engine with a lookahead: %+v", e)
	}
	tb.Start()
	if err := tb.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if e.Epochs() == 0 {
		t.Fatal("engine executed no epochs")
	}
	var out, in uint64
	for i := 0; i < e.NumDomains(); i++ {
		st := e.Domain(i).Stats()
		if st.Events == 0 || st.BarrierWaits != e.Epochs() {
			t.Fatalf("domain %d: %d events, %d barrier waits over %d epochs", i, st.Events, st.BarrierWaits, e.Epochs())
		}
		if i > 0 && (st.MsgsIn == 0 || st.MsgsOut == 0) {
			t.Fatalf("domain %d exchanged no cross-domain messages: %+v", i, st)
		}
		out, in = out+st.MsgsOut, in+st.MsgsIn
	}
	// Run merges only at the head of an epoch, so what the last window sent
	// is still in its outbox.
	if in == 0 || in > out {
		t.Fatalf("%d messages received, %d sent", in, out)
	}
}

// TestObserveBetweenEpochs samples the registry once per simulated second
// of a Domains=3 campaign through Observe — between epochs, where no domain
// runs an event; CI runs it under -race. The samples are the same on one
// worker and on three, there is one per second up to and including the
// horizon, and the run's Summary and Prometheus output are those of the
// same run unobserved.
func TestObserveBetweenEpochs(t *testing.T) {
	cfg := Config{Seed: 9, NumDevices: 6, DeviceGroups: 3, Domains: 3}
	drive := waves(4*time.Second, time.Second, 2*time.Second, 100, 10*time.Second)
	observed := func(workers int) ([]string, runArtifacts) {
		var samples []string
		var last sim.Time
		c := cfg
		c.PDESWorkers = workers
		run := artifacts(t, c, func(t *testing.T, tb *Testbed) {
			tb.Observe(time.Second, func(now sim.Time) {
				if now != last+sim.Second {
					t.Errorf("observation at %v follows %v", now, last)
				}
				last = now
				var b bytes.Buffer
				if err := telemetry.WritePrometheus(&b, tb.Registry()); err != nil {
					t.Error(err)
				}
				samples = append(samples, b.String())
			})
			drive(t, tb)
		})
		return samples, run
	}
	one, _ := observed(1)
	three, run := observed(3)
	if len(one) != 10 || one[0] == one[9] {
		t.Fatalf("%d samples over 10 s, first and last equal: %v", len(one), len(one) > 0 && one[0] == one[len(one)-1])
	}
	if !reflect.DeepEqual(one, three) {
		t.Fatal("registry samples differ between one worker and three")
	}
	plain := artifacts(t, cfg, drive)
	if run.summary != plain.summary || run.prom != plain.prom {
		t.Fatalf("observing changed the run\n--- unobserved ---\n%s--- observed ---\n%s", plain.summary, run.summary)
	}
}
