package scenario

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// FuzzLoad feeds arbitrary bytes to the scenario loader, the one input a
// user hands the testbed as a file. No input may panic: a definition Load
// accepts converts to a testbed configuration, and one with at most 64
// devices is built, started and run for one simulated second, where Apply
// returns either an error or a testbed. Every committed scenario seeds the
// corpus.
func FuzzLoad(f *testing.F) {
	for _, path := range committedScenarios(f) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(sample))
	for _, variant := range []string{
		// Lossy access links.
		`{"name": "lossy", "seed": 3, "devices": 8, "durationSec": 30,
		  "link": {"rateMbps": 10, "delayMs": 5, "queueKB": 16, "lossProb": 0.2},
		  "attacks": [{"atSec": 0.5, "type": "udp", "durationSec": 5, "pps": 500}]}`,
		// Heavy churn.
		`{"name": "churned", "seed": 5, "devices": 16, "durationSec": 20, "meanThinkSec": 0.5,
		  "churn": {"enabled": true, "meanUpSec": 0.3, "meanDownSec": 0.1},
		  "attacks": [{"atSec": 0.2, "type": "syn", "port": 80, "durationSec": 2, "pps": 200}]}`,
		// HTTP flood with a short window.
		`{"name": "http-flood", "seed": 9, "devices": 4, "durationSec": 10, "scanIntervalMillis": 20,
		  "attacks": [{"atSec": 0, "type": "http", "port": 80, "durationSec": 1, "pps": 50}],
		  "windowMillis": 100}`,
		// The detection loop closed, on a traced, grouped, faulted fleet.
		`{"name": "defended", "seed": 11, "devices": 6, "groups": 2, "durationSec": 4,
		  "traceSampleRate": 0.5, "chaos": 1, "ids": true, "mitigate": true, "windowMillis": 200,
		  "attacks": [{"atSec": 0.5, "type": "ack", "port": 80, "durationSec": 2, "pps": 300}]}`,
		// Groups on the testbed's default fleet.
		`{"durationSec": 5, "groups": 2}`,
	} {
		f.Add([]byte(variant))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		d.TestbedConfig()
		if d.Devices > 64 {
			return
		}
		r, err := d.Apply(1)
		if err != nil {
			return
		}
		if r == nil || r.Testbed == nil {
			t.Fatal("Apply returned neither a testbed nor an error")
		}
		r.Testbed.Start()
		if err := r.Testbed.Run(time.Second); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
}
