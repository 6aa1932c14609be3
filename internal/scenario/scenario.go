// Package scenario loads experiment descriptions from JSON, the
// customization surface the paper advertises ("a customizable environment
// ... allowing researchers to modify and extend the framework"): fleet
// size and shape, benign intensity, churn, link properties, the attack
// plan, fault injection, tracing and the detection loop are all declared in
// one reviewable document instead of code. A definition is the whole of
// what a run simulates; how the run executes (its PDES domain count) and
// what it writes are the caller's.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"ddoshield/internal/botnet"
	"ddoshield/internal/faults"
	"ddoshield/internal/ids"
	"ddoshield/internal/mitigation"
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
	// Groups splits the fleet across this many edge switches (0 or 1 keeps
	// one flat switch).
	Groups int `json:"groups"`
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
	// TraceSampleRate is the causal-tracing flow sample rate in [0, 1]
	// (0 disables; 1 traces every flow).
	TraceSampleRate float64 `json:"traceSampleRate"`
	// Chaos is the fault-injection intensity in [0, 1]: a random plan of
	// link flaps, impairment windows and crash loops across the fleet,
	// seeded by Seed+7 and placed from half the benign lead before the first
	// attack to the end of the run (0 disables).
	Chaos float64 `json:"chaos"`
	// IDS attaches an inline threshold-rule detection unit at the TServer
	// uplink; Mitigate closes the loop with the verdict-cache firewall at
	// the TServer ingress, fed by the unit's alerts (requires IDS).
	IDS      bool `json:"ids"`
	Mitigate bool `json:"mitigate"`
}

// Default is the run without a scenario file: ten devices for two
// simulated minutes on seed 42 and, after a 30 s benign lead, the paper's
// three flood vectors (SYN and ACK on :80, then UDP) in waves that repeat
// every 48 s, each vector 12 s long at 400 packets/s per bot, 3 s apart.
func Default() *Definition {
	d := &Definition{Name: "default", Seed: 42, Devices: 10, DurationSec: 120}
	for _, start := range []float64{30, 78} {
		d.Attacks = append(d.Attacks,
			Attack{AtSec: start, Type: "syn", Port: 80, DurationSec: 12, PPS: 400},
			Attack{AtSec: start + 15, Type: "ack", Port: 80, DurationSec: 12, PPS: 400},
			Attack{AtSec: start + 30, Type: "udp", DurationSec: 12, PPS: 400})
	}
	return d
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

// LoadFile parses the JSON scenario at path.
func LoadFile(path string) (*Definition, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
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
	devices := d.Devices // the fleet the run will have
	if devices == 0 {
		devices = testbed.DefaultDevices
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
		{"groups", float64(d.Groups), 0, float64(devices)},
		{"traceSampleRate", d.TraceSampleRate, 0, 1},
		{"chaos", d.Chaos, 0, 1},
	} {
		if f.v != 0 && (f.v < f.lo || f.v > f.hi) {
			return fmt.Errorf("scenario %q: %s must be 0 or in [%g, %g]", d.Name, f.name, f.lo, f.hi)
		}
	}
	if d.Mitigate && !d.IDS {
		return fmt.Errorf("scenario %q: mitigate requires ids (the firewall is driven by IDS window alerts)", d.Name)
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

// seconds converts a definition's seconds to a duration.
func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// Duration returns the run length.
func (d *Definition) Duration() time.Duration {
	return seconds(d.DurationSec)
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
		Seed:            d.Seed,
		NumDevices:      d.Devices,
		DeviceGroups:    d.Groups,
		TraceSampleRate: d.TraceSampleRate,
		Churn: testbed.ChurnConfig{
			Enabled:  d.Churn.Enabled,
			MeanUp:   seconds(d.Churn.MeanUpSec),
			MeanDown: seconds(d.Churn.MeanDownSec),
		},
	}
	if d.MeanThinkSec > 0 {
		cfg.MeanThink = seconds(d.MeanThinkSec)
	}
	if d.ScanIntervalMillis > 0 {
		cfg.ScanInterval = time.Duration(d.ScanIntervalMillis) * time.Millisecond
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

// A Run is an applied definition: its testbed, with the chaos plan and the
// attacks armed, and the detection loop the definition asks for.
type Run struct {
	Testbed  *testbed.Testbed
	IDS      *ids.Unit            // nil unless the definition sets ids
	Firewall *mitigation.Firewall // nil unless it sets mitigate
}

// Apply builds the testbed on the given number of PDES domains (<= 1 runs
// serially; the results are the same bytes either way) and arms what the
// definition plans: the chaos faults, the attacks, then the detection loop.
func (d *Definition) Apply(domains int) (*Run, error) {
	cfg := d.TestbedConfig()
	cfg.Domains = domains
	tb, err := testbed.New(cfg)
	if err != nil {
		return nil, err
	}
	if d.Chaos > 0 {
		var lead float64 // the benign lead before the first attack
		for i, a := range d.Attacks {
			if i == 0 || a.AtSec < lead {
				lead = a.AtSec
			}
		}
		tb.Injector().Schedule(faults.Random(faults.RandomConfig{
			Seed:      d.Seed + 7,
			Start:     seconds(lead) / 2,
			Window:    d.Duration(),
			Intensity: d.Chaos,
		}))
	}
	for _, a := range d.Attacks {
		at, err := botnet.ParseAttackType(a.Type)
		if err != nil {
			return nil, err
		}
		tb.ScheduleAttack(seconds(a.AtSec), botnet.Command{
			Type:     at,
			Target:   tb.TServerAddr(),
			Port:     a.Port,
			Duration: seconds(a.DurationSec),
			PPS:      a.PPS,
		})
	}
	r := &Run{Testbed: tb}
	if d.IDS {
		r.IDS = ids.New(ids.Config{
			Model:    ids.NewThresholdRule(),
			Window:   d.Window(),
			Labeler:  tb.Labeler(),
			Registry: tb.Registry(),
		})
		tb.AttachIDS(r.IDS)
		if d.Mitigate {
			r.Firewall = tb.AttachMitigation(r.IDS, testbed.MitigationConfig{})
		}
	}
	return r, nil
}
