package testbed

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"ddoshield/internal/netsim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/telemetry/prof"
	"ddoshield/internal/telemetry/trace"
)

// runArtifacts is every deterministic artifact of one finished run — the
// strings the determinism tests byte-compare and the network's frame
// account — plus the testbed they came from, for checks on what the run did.
type runArtifacts struct {
	summary, prom, spans, virtual string
	frames                        netsim.FrameLedger
	tb                            *Testbed
}

// artifacts builds cfg, hands the testbed to drive (which starts it, arms
// the campaign and runs it) and renders Summary, the Prometheus snapshot
// of the main registry, the canonical span JSONL (empty without a tracer)
// and the virtual-load attribution at its DeviceGroups+1 reference layout.
// Every run's frames must be conserved (requireFramesConserved).
func artifacts(t *testing.T, cfg Config, drive func(*testing.T, *Testbed)) runArtifacts {
	t.Helper()
	tb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, tb)
	frames := requireFramesConserved(t, tb)
	// Eviction order is a finish-order artifact: a ring that overflowed
	// cannot be compared across execution modes.
	if n := tb.Tracer().Evicted(); n != 0 {
		t.Fatalf("span ring evicted %d spans; grow TraceSpanCapacity", n)
	}
	var pb, sb bytes.Buffer
	if err := telemetry.WritePrometheus(&pb, tb.Registry()); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteSpans(&sb, trace.CanonicalSpans(tb.Tracer().Spans())); err != nil {
		t.Fatal(err)
	}
	vj, err := (&prof.Profile{Virtual: tb.VirtualProfile()}).JSON()
	if err != nil {
		t.Fatal(err)
	}
	return runArtifacts{summary: tb.Summary(), prom: pb.String(), spans: sb.String(), virtual: string(vj), frames: frames, tb: tb}
}

// requireFramesConserved checks a finished run's frame account: every frame
// that entered the network was released exactly once or is still in
// flight, and on every link direction every frame offered (or duplicated)
// was delivered, dropped by a named cause, or is still queued or in the
// air. It returns the network's ledger.
func requireFramesConserved(t *testing.T, tb *Testbed) netsim.FrameLedger {
	t.Helper()
	n := tb.Network()
	for _, l := range n.Links() {
		for side := 0; side < 2; side++ {
			lg := l.LedgerSide(side)
			out := lg.Delivered + lg.QueueDrops + lg.LossDrops + lg.CutDrops + lg.InFlight()
			if lg.Offered+lg.Duplicated != out {
				t.Fatalf("link %s side %d: %+v: %d frames offered or duplicated, %d accounted for",
					l, side, lg, lg.Offered+lg.Duplicated, out)
			}
		}
	}
	lg := n.Ledger()
	if lg.Sent == 0 {
		t.Fatal("no frame entered the network")
	}
	if lg.Sent+lg.Copies-lg.Released != lg.InFlight {
		t.Fatalf("ledger %+v: %d entered, %d released, %d in flight",
			lg, lg.Sent+lg.Copies, lg.Released, lg.InFlight)
	}
	return lg
}

// requireSameAcrossModes runs the same campaign under every configuration
// in cfgs — one simulation in different execution modes: Domains, workers,
// staged or sequential build — and fails unless each run conserves its
// frames and its artifacts, frame account included, are byte-identical to
// those of cfgs[0], the reference.
// It returns every run's artifacts, reference first.
func requireSameAcrossModes(t *testing.T, cfgs []Config, drive func(*testing.T, *Testbed)) []runArtifacts {
	t.Helper()
	out := make([]runArtifacts, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = artifacts(t, cfg, drive)
		if i == 0 {
			continue
		}
		want, got := out[0], out[i]
		mode := fmt.Sprintf("domains=%d workers=%d", cfg.Domains, cfg.PDESWorkers)
		if got.summary != want.summary {
			t.Fatalf("%s: Summary diverged\n--- reference ---\n%s--- got ---\n%s", mode, want.summary, got.summary)
		}
		if got.prom != want.prom {
			t.Fatalf("%s: Prometheus snapshot diverged (%d vs %d bytes)", mode, len(want.prom), len(got.prom))
		}
		if got.spans != want.spans {
			t.Fatalf("%s: canonical span output diverged (%d vs %d bytes)", mode, len(want.spans), len(got.spans))
		}
		if got.frames != want.frames {
			t.Fatalf("%s: frame ledger %+v, reference %+v", mode, got.frames, want.frames)
		}
		if got.virtual != want.virtual {
			t.Fatalf("%s: virtual profile diverged\n--- reference ---\n%s--- got ---\n%s", mode, want.virtual, got.virtual)
		}
	}
	return out
}

// modes returns cfg once per (domains, workers) pair, serial reference
// first when the caller lists it first.
func modes(cfg Config, pairs ...[2]int) []Config {
	out := make([]Config, len(pairs))
	for i, p := range pairs {
		out[i] = cfg
		out[i].Domains, out[i].PDESWorkers = p[0], p[1]
	}
	return out
}

// waves is the plain campaign drive: start, schedule the three default
// vectors (each dur long at pps per bot, gap apart, the first at first),
// run for total.
func waves(first, gap, dur time.Duration, pps int, total time.Duration) func(*testing.T, *Testbed) {
	return func(t *testing.T, tb *Testbed) {
		t.Helper()
		tb.Start()
		tb.ScheduleAttackWave(first, gap, tb.DefaultAttackWave(dur, pps))
		if err := tb.Run(total); err != nil {
			t.Fatal(err)
		}
	}
}

func hashOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// TestFlatIsOneGroupPlan pins the flat topology — every device on lan0 —
// to the artifacts it produced when it had a construction loop of its own:
// the hashes below were recorded at the commit before it became the
// one-group plan of the grouped builder. The primed case covers the rules
// that loop carried separately (FDB and static-ARP priming, churn streams);
// its hashes were re-recorded when primed testbeds got an ARP directory: the
// run's 1490 floods — all the attacker ARPing for unused 10.0.2.x addresses
// — became 1490 arp-suppressed discards at lan0, so the Summary gained its
// "arp" line, lan0's egress links lost those 1490 frames each, and nothing
// else in the three artifacts moved. The dynamic case has no directory and
// must never move.
func TestFlatIsOneGroupPlan(t *testing.T) {
	base := Config{Seed: 42, NumDevices: 12, MeanThink: 700 * time.Millisecond}
	primed := base
	primed.PrimeARP = true
	primed.Churn = ChurnConfig{Enabled: true, MeanUp: 8 * time.Second, MeanDown: time.Second}
	for _, tc := range []struct {
		name                   string
		cfg                    Config
		summary, prom, virtual string
	}{
		{"dynamic", base, "195483730a3baba5", "68cb9722b289fdfb", "817863da687d0f43"},
		{"primed", primed, "56ba7e7bdb2c9863", "9b17267d6c0bd722", "d06e1bc5449c769d"},
	} {
		runs := requireSameAcrossModes(t, modes(tc.cfg, [2]int{1, 1}, [2]int{3, 0}),
			waves(8*time.Second, 2*time.Second, 4*time.Second, 150, 25*time.Second))
		got := runs[0]
		if got.tb.InfectedCount() == 0 {
			t.Fatalf("%s: campaign conscripted nothing:\n%s", tc.name, got.summary)
		}
		if s, p, v := hashOf(got.summary), hashOf(got.prom), hashOf(got.virtual); s != tc.summary || p != tc.prom || v != tc.virtual {
			t.Errorf("%s: artifacts moved: summary %s (want %s), prometheus %s (want %s), virtual profile %s (want %s)",
				tc.name, s, tc.summary, p, tc.prom, v, tc.virtual)
		}
	}
}
