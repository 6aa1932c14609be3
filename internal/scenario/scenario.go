// Package scenario loads experiment descriptions from JSON, the
// customization surface the paper advertises ("a customizable environment
// ... allowing researchers to modify and extend the framework"): fleet
// size and profiles, benign intensity, churn, link properties and the
// attack plan are all declared in one reviewable document instead of code.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"ddoshield/internal/botnet"
	"ddoshield/internal/netsim"
	"ddoshield/internal/sim"
	"ddoshield/internal/testbed"
)

// Attack describes one scheduled attack command.
type Attack struct {
	// AtSec schedules the command (seconds from simulation start).
	AtSec float64 `json:"atSec"`
	// Type is "syn", "ack", "udp" or "http".
	Type string `json:"type"`
	// Port is the target port (0 = vector default).
	Port uint16 `json:"port"`
	// DurationSec and PPS shape the flood.
	DurationSec float64 `json:"durationSec"`
	PPS         int     `json:"pps"`
}

// Definition is the JSON document root.
type Definition struct {
	// Name labels the scenario in output.
	Name string `json:"name"`
	// Seed drives all randomness.
	Seed int64 `json:"seed"`
	// Devices is the fleet size.
	Devices int `json:"devices"`
	// DurationSec is the run length.
	DurationSec float64 `json:"durationSec"`
	// MeanThinkSec paces benign clients.
	MeanThinkSec float64 `json:"meanThinkSec"`
	// ScanIntervalMillis paces the telnet scanner.
	ScanIntervalMillis int `json:"scanIntervalMillis"`
	// Churn enables device reboots with the given mean up/down times.
	Churn struct {
		Enabled     bool    `json:"enabled"`
		MeanUpSec   float64 `json:"meanUpSec"`
		MeanDownSec float64 `json:"meanDownSec"`
	} `json:"churn"`
	// Link sets access-link properties.
	Link struct {
		RateMbps float64 `json:"rateMbps"`
		DelayMs  float64 `json:"delayMs"`
		QueueKB  int     `json:"queueKB"`
		LossProb float64 `json:"lossProb"`
	} `json:"link"`
	// Attacks is the attack plan.
	Attacks []Attack `json:"attacks"`
	// WindowMillis sets the IDS aggregation window (default 1000).
	WindowMillis int `json:"windowMillis"`
}

// Load parses a JSON scenario.
func Load(r io.Reader) (*Definition, error) {
	var d Definition
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Bounds on a definition's numbers. Every accepted value converts to a
// time.Duration, a sim.Time or an int without overflow, and none asks for an
// event storm that would hang the run: a think time or churn cycle of
// nanoseconds, or a flood of 2^53 packets a second per bot.
const (
	maxSeconds  = 1e6  // any duration, ~11.6 days
	minSeconds  = 1e-3 // think time and churn up/down times, when set
	maxRateMbps = 1e5  // 100 Gb/s
	maxQueueKB  = 1 << 20
	maxPPS      = 1_000_000
)

// Validate rejects structurally invalid definitions and numbers outside the
// bounds above. A zero in an optional field keeps the testbed default.
func (d *Definition) Validate() error {
	if d.DurationSec <= 0 || d.DurationSec > maxSeconds {
		return fmt.Errorf("scenario %q: durationSec must be in (0, %g]", d.Name, maxSeconds)
	}
	if d.Devices < 0 || d.Devices > testbed.MaxDevices {
		return fmt.Errorf("scenario %q: devices out of range", d.Name)
	}
	for _, f := range []struct {
		name      string
		v, lo, hi float64
	}{
		{"meanThinkSec", d.MeanThinkSec, minSeconds, maxSeconds},
		{"scanIntervalMillis", float64(d.ScanIntervalMillis), 1, maxSeconds * 1e3},
		{"churn.meanUpSec", d.Churn.MeanUpSec, minSeconds, maxSeconds},
		{"churn.meanDownSec", d.Churn.MeanDownSec, minSeconds, maxSeconds},
		{"link.rateMbps", d.Link.RateMbps, 1e-3, maxRateMbps},
		{"link.delayMs", d.Link.DelayMs, 1e-6, maxSeconds * 1e3},
		{"link.queueKB", float64(d.Link.QueueKB), 1, maxQueueKB},
		{"link.lossProb", d.Link.LossProb, 0, 1},
		{"windowMillis", float64(d.WindowMillis), 1, maxSeconds * 1e3},
	} {
		if f.v != 0 && (f.v < f.lo || f.v > f.hi) {
			return fmt.Errorf("scenario %q: %s must be 0 or in [%g, %g]", d.Name, f.name, f.lo, f.hi)
		}
	}
	for i, a := range d.Attacks {
		if _, err := botnet.ParseAttackType(a.Type); err != nil {
			return fmt.Errorf("scenario %q: attack %d: %w", d.Name, i, err)
		}
		if a.DurationSec <= 0 || a.DurationSec > maxSeconds || a.PPS <= 0 || a.PPS > maxPPS {
			return fmt.Errorf("scenario %q: attack %d: durationSec must be in (0, %g] and pps in [1, %d]", d.Name, i, maxSeconds, maxPPS)
		}
		if a.AtSec < 0 || a.AtSec >= d.DurationSec {
			return fmt.Errorf("scenario %q: attack %d: atSec outside the run", d.Name, i)
		}
	}
	return nil
}

// Duration returns the run length.
func (d *Definition) Duration() time.Duration {
	return time.Duration(d.DurationSec * float64(time.Second))
}

// Window returns the IDS window (default 1 s).
func (d *Definition) Window() time.Duration {
	if d.WindowMillis <= 0 {
		return time.Second
	}
	return time.Duration(d.WindowMillis) * time.Millisecond
}

// TestbedConfig converts the definition into a testbed configuration.
func (d *Definition) TestbedConfig() testbed.Config {
	cfg := testbed.Config{
		Seed:       d.Seed,
		NumDevices: d.Devices,
	}
	if d.MeanThinkSec > 0 {
		cfg.MeanThink = time.Duration(d.MeanThinkSec * float64(time.Second))
	}
	if d.ScanIntervalMillis > 0 {
		cfg.ScanInterval = time.Duration(d.ScanIntervalMillis) * time.Millisecond
	}
	cfg.Churn = testbed.ChurnConfig{
		Enabled:  d.Churn.Enabled,
		MeanUp:   time.Duration(d.Churn.MeanUpSec * float64(time.Second)),
		MeanDown: time.Duration(d.Churn.MeanDownSec * float64(time.Second)),
	}
	if d.Link.RateMbps > 0 {
		cfg.Link.RateBps = int64(d.Link.RateMbps * 1e6)
	}
	if d.Link.DelayMs > 0 {
		cfg.Link.Delay = sim.Time(d.Link.DelayMs * float64(sim.Millisecond))
	}
	if d.Link.QueueKB > 0 {
		cfg.Link.QueueBytes = d.Link.QueueKB << 10
	}
	if d.Link.LossProb > 0 {
		cfg.Link.LossProb = d.Link.LossProb
	}
	return cfg
}

// Apply builds the testbed and schedules the attack plan.
func (d *Definition) Apply() (*testbed.Testbed, error) {
	tb, err := testbed.New(d.TestbedConfig())
	if err != nil {
		return nil, err
	}
	for _, a := range d.Attacks {
		at, err := botnet.ParseAttackType(a.Type)
		if err != nil {
			return nil, err
		}
		cmd := botnet.Command{
			Type:     at,
			Target:   tb.TServerAddr(),
			Port:     a.Port,
			Duration: time.Duration(a.DurationSec * float64(time.Second)),
			PPS:      a.PPS,
		}
		tb.ScheduleAttack(time.Duration(a.AtSec*float64(time.Second)), cmd)
	}
	return tb, nil
}

var _ = netsim.LinkConfig{} // the definition maps onto this type
