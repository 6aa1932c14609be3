package scenario

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ddoshield/internal/packet"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

const sample = `{
  "name": "smoke",
  "seed": 7,
  "devices": 6,
  "durationSec": 120,
  "meanThinkSec": 2,
  "scanIntervalMillis": 100,
  "churn": {"enabled": true, "meanUpSec": 60, "meanDownSec": 3},
  "link": {"rateMbps": 50, "delayMs": 2, "queueKB": 64, "lossProb": 0.01},
  "attacks": [
    {"atSec": 60, "type": "syn", "port": 80, "durationSec": 10, "pps": 300},
    {"atSec": 80, "type": "udp", "durationSec": 10, "pps": 300}
  ],
  "windowMillis": 500,
  "groups": 2,
  "traceSampleRate": 0.25
}`

func TestLoadValid(t *testing.T) {
	d, err := Load(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "smoke" || d.Devices != 6 {
		t.Fatalf("parsed: %+v", d)
	}
	if d.Duration() != 2*time.Minute {
		t.Fatalf("Duration = %v", d.Duration())
	}
	if d.Window() != 500*time.Millisecond {
		t.Fatalf("Window = %v", d.Window())
	}
	cfg := d.TestbedConfig()
	if cfg.Seed != 7 || cfg.NumDevices != 6 || cfg.DeviceGroups != 2 || cfg.TraceSampleRate != 0.25 {
		t.Fatalf("config: %+v", cfg)
	}
	if cfg.Link.RateBps != 50_000_000 || cfg.Link.QueueBytes != 64<<10 {
		t.Fatalf("link: %+v", cfg.Link)
	}
	if cfg.Link.Delay != 2*sim.Millisecond {
		t.Fatalf("delay: %v", cfg.Link.Delay)
	}
	if !cfg.Churn.Enabled || cfg.Churn.MeanUp != time.Minute {
		t.Fatalf("churn: %+v", cfg.Churn)
	}
	// Groups are bounded by the fleet the run gets, the testbed's default
	// one when devices is omitted.
	if _, err := Load(strings.NewReader(`{"durationSec": 5, "groups": 2}`)); err != nil {
		t.Fatalf("groups without devices rejected: %v", err)
	}
	// Loss draws from the per-link streams keyed by the scenario seed: the
	// lossy definition builds and runs.
	if cfg.Link.LossProb != 0.01 {
		t.Fatalf("loss: %+v", cfg.Link)
	}
	r, err := d.Apply(1)
	if err != nil {
		t.Fatalf("lossy scenario rejected: %v", err)
	}
	tb := r.Testbed
	tb.Start()
	if err := tb.Run(time.Second); err != nil {
		t.Fatalf("lossy scenario failed to run: %v", err)
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"unknown field":    `{"durationSec": 10, "bogus": 1}`,
		"no duration":      `{"devices": 3}`,
		"bad type":         `{"durationSec": 10, "attacks":[{"atSec":1,"type":"dns","durationSec":1,"pps":1}]}`,
		"attack too late":  `{"durationSec": 10, "attacks":[{"atSec":20,"type":"syn","durationSec":1,"pps":1}]}`,
		"zero pps":         `{"durationSec": 10, "attacks":[{"atSec":1,"type":"syn","durationSec":1,"pps":0}]}`,
		"too many devices": `{"durationSec": 10, "devices": 300000}`,
		"endless run":      `{"durationSec": 1e300}`,
		"nanosecond think": `{"durationSec": 10, "meanThinkSec": 1e-9}`,
		"nanosecond churn": `{"durationSec": 10, "churn": {"enabled": true, "meanUpSec": 1e-9}}`,
		"negative queue":   `{"durationSec": 10, "link": {"queueKB": -1}}`,
		"loss above one":   `{"durationSec": 10, "link": {"lossProb": 5}}`,
		"delay overflow":   `{"durationSec": 10, "link": {"delayMs": 1e300}}`,
		"flood overflow":   `{"durationSec": 10, "attacks":[{"atSec":1,"type":"udp","durationSec":1,"pps":9007199254740991}]}`,
		"not json":         `nope`,
		"negative groups":  `{"durationSec": 10, "devices": 4, "groups": -1}`,
		"groups > devices": `{"durationSec": 10, "devices": 4, "groups": 5}`,
		"groups > default": `{"durationSec": 10, "groups": 11}`,
		"trace rate > 1":   `{"durationSec": 10, "traceSampleRate": 1.5}`,
		"negative chaos":   `{"durationSec": 10, "chaos": -0.1}`,
		"chaos above one":  `{"durationSec": 10, "chaos": 2}`,
		"mitigate, no ids": `{"durationSec": 10, "mitigate": true}`,
	}
	for name, body := range cases {
		if _, err := Load(strings.NewReader(body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestApplyRunsScenario(t *testing.T) {
	d, err := Load(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Apply(1)
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Testbed
	// Count spoofed SYNs at the TServer to prove the scheduled attack ran.
	syns := 0
	tb.AddTap(func(at sim.Time, raw []byte, _ trace.Context) {
		p := new(packet.Packet)
		if packet.DecodeInto(p, at, raw) == nil && p.HasTCP && p.TCP.Flags == packet.FlagSYN && p.IPv4.Src[2] >= 200 {
			syns++
		}
	})
	tb.Start()
	if err := tb.Run(d.Duration()); err != nil {
		t.Fatal(err)
	}
	if tb.InfectedCount() == 0 {
		t.Fatal("scenario produced no infections")
	}
	if syns == 0 {
		t.Fatal("scheduled SYN flood never fired")
	}
}

// committedScenarios lists the scenario files shipped with the repository.
func committedScenarios(tb testing.TB) []string {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no committed scenarios (%v)", err)
	}
	return paths
}

// TestCommittedScenariosValidate loads every scenario file in the
// repository, and validates the built-in default.
func TestCommittedScenariosValidate(t *testing.T) {
	for _, path := range committedScenarios(t) {
		if _, err := LoadFile(path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
	if err := Default().Validate(); err != nil {
		t.Errorf("default: %v", err)
	}
}

// TestApplyArmsDetectionLoop checks that ids and mitigate attach a unit and
// a firewall, and that a definition without them attaches neither.
func TestApplyArmsDetectionLoop(t *testing.T) {
	for _, body := range []string{
		`{"durationSec": 10, "devices": 4}`,
		`{"durationSec": 10, "devices": 4, "ids": true}`,
		`{"durationSec": 10, "devices": 4, "ids": true, "mitigate": true}`,
	} {
		d, err := Load(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.Apply(1)
		if err != nil {
			t.Fatal(err)
		}
		if (r.IDS != nil) != d.IDS || (r.Firewall != nil) != d.Mitigate {
			t.Errorf("%s: IDS %v, firewall %v", body, r.IDS != nil, r.Firewall != nil)
		}
	}
}

// TestDefendedScenarioOrdersReachBots runs scenarios/defended12.json and
// checks that each of its attacks reached at least one bot: the C2 records
// an interval for an order only when some bot received it. A schedule
// that fires before the botnet forms defends against nothing.
func TestDefendedScenarioOrdersReachBots(t *testing.T) {
	d, err := LoadFile(filepath.Join("..", "..", "scenarios", "defended12.json"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Apply(1)
	if err != nil {
		t.Fatal(err)
	}
	tb := r.Testbed
	tb.Start()
	if err := tb.Run(d.Duration()); err != nil {
		t.Fatal(err)
	}
	reached := map[string]bool{}
	for _, iv := range tb.C2().Intervals() {
		if len(iv.Bots) > 0 {
			reached[iv.Cmd.Type.String()] = true
		}
	}
	for _, a := range d.Attacks {
		if !reached[a.Type] {
			t.Errorf("the %s order at %gs reached no bot", a.Type, a.AtSec)
		}
	}
}
