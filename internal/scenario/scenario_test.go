package scenario

import (
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
  "windowMillis": 500
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
	if cfg.Seed != 7 || cfg.NumDevices != 6 {
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
	// Loss draws from the per-link streams keyed by the scenario seed: the
	// lossy definition builds and runs.
	if cfg.Link.LossProb != 0.01 {
		t.Fatalf("loss: %+v", cfg.Link)
	}
	tb, err := d.Apply()
	if err != nil {
		t.Fatalf("lossy scenario rejected: %v", err)
	}
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
	tb, err := d.Apply()
	if err != nil {
		t.Fatal(err)
	}
	// Count spoofed SYNs at the TServer to prove the scheduled attack ran.
	syns := 0
	tb.AddTap(func(at sim.Time, raw []byte, _ trace.Context) {
		p, err := packet.Decode(at, raw)
		if err == nil && p.HasTCP && p.TCP.Flags == packet.FlagSYN && p.IPv4.Src[2] >= 200 {
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
