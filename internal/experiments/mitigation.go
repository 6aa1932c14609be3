package experiments

import (
	"fmt"
	"time"

	"ddoshield/internal/ids"
	"ddoshield/internal/mitigation"
	"ddoshield/internal/report"
	"ddoshield/internal/testbed"
)

// MitigationSweepConfig parameterizes the closed-loop defense sweep: a
// grid over responder aggregation threshold × verdict-cache size ×
// reaction delay, each point measuring the three numbers that grade a
// mitigation deployment — time-to-mitigate, collateral damage and
// residual attack throughput. Points run at Domains=1; that any other
// Domains value yields the same bytes is the tests' business
// (TestMitigationSweepSmoke, testbed.TestPDESMitigatedCampaignDeterminism).
type MitigationSweepConfig struct {
	Seed int64
	// Thresholds sweeps the responder's /24 aggregation threshold
	// (default {4, 64}: aggressive prefix blocking vs per-address rules).
	Thresholds []int
	// CacheSizes sweeps the verdict-cache capacity (default {128, 1024}).
	CacheSizes []int
	// ReactionDelays sweeps the alert→install control-plane lag
	// (default {0, 2 s}).
	ReactionDelays []time.Duration
}

// The campaign every grid point runs: sweepDevices devices, a
// benign+infection lead of sweepWarmup, then one SYN/ACK/UDP wave of
// sweepFlood split evenly over the three vectors at sweepPPS per bot, seen
// through a 1 s IDS window. On the wire each vector lasts whole seconds
// (botnet.Command.OnWire rounds 20/3 s up to 7 s): the wave runs from 25 s
// to 46 s, and the run ends at 50 s, 4 s later, leaving rule expiry and
// recovery visible.
const (
	sweepDevices = 10
	sweepWarmup  = 25 * time.Second
	sweepFlood   = 20 * time.Second
	sweepPPS     = 200
)

func (c MitigationSweepConfig) withDefaults() MitigationSweepConfig {
	if len(c.Thresholds) == 0 {
		c.Thresholds = []int{4, 64}
	}
	if len(c.CacheSizes) == 0 {
		c.CacheSizes = []int{128, 1024}
	}
	if len(c.ReactionDelays) == 0 {
		c.ReactionDelays = []time.Duration{0, 2 * time.Second}
	}
	return c
}

// MitigationPoint is one grid point's measurements: its settings, the
// loop's scoreboard panel at the end of the run (latencies are -1 when an
// anchor never happened, e.g. the flood was never detected) and the
// residual attack rate.
type MitigationPoint struct {
	Threshold       int     `json:"aggregate_threshold"`
	CacheSize       int     `json:"cache_size"`
	ReactionDelayMS float64 `json:"reaction_delay_ms"`
	testbed.MitigationUnitBoard
	// ResidualAttackPPS is AttackPassed amortized over the wave's on-wire
	// span, the sum of its commands' OnWire durations.
	ResidualAttackPPS float64 `json:"residual_attack_pps"`
}

// testbedConfig is the topology every grid point runs on.
func (c MitigationSweepConfig) testbedConfig() testbed.Config {
	return testbed.Config{Seed: c.Seed, NumDevices: sweepDevices, DeviceGroups: 4}
}

// runPoint drives one grid point's campaign on tb, a fresh testbed built
// from testbedConfig, and measures it.
func (c MitigationSweepConfig) runPoint(tb *testbed.Testbed, threshold, cacheSize int, delay time.Duration) (MitigationPoint, error) {
	pt := MitigationPoint{
		Threshold:       threshold,
		CacheSize:       cacheSize,
		ReactionDelayMS: float64(delay) / float64(time.Millisecond),
	}
	// The unit registers no metrics of its own: ids_window_cpu_us is a
	// wall-clock histogram, and the smoke test byte-diffs Prometheus output
	// across Domains. Everything mitigation exports is simulated-time.
	unit := ids.New(ids.Config{
		Model:   ids.NewThresholdRule(),
		Window:  time.Second,
		Labeler: tb.Labeler(),
	})
	tb.AttachIDS(unit)
	tb.AttachMitigation(unit, testbed.MitigationConfig{
		CacheSize: cacheSize,
		Responder: mitigation.ResponderConfig{
			AggregateThreshold: threshold,
			ReactionDelay:      delay,
		},
	})
	tb.Start()
	wave := tb.DefaultAttackWave(sweepFlood/3, sweepPPS)
	tb.ScheduleAttackWave(sweepWarmup, 0, wave)
	if err := tb.Run(sweepWarmup + sweepFlood + 5*time.Second); err != nil {
		return pt, err
	}
	unit.Flush()
	pt.MitigationUnitBoard = tb.MitigationScoreboard().Units[0]
	var onWire time.Duration
	for _, cmd := range wave {
		onWire += cmd.OnWire().Duration
	}
	pt.ResidualAttackPPS = float64(pt.AttackPassed) / onWire.Seconds()
	return pt, nil
}

// RunMitigationSweep runs the full grid, one campaign per point.
func RunMitigationSweep(cfg MitigationSweepConfig) ([]MitigationPoint, error) {
	cfg = cfg.withDefaults()
	var out []MitigationPoint
	for _, threshold := range cfg.Thresholds {
		for _, cacheSize := range cfg.CacheSizes {
			for _, delay := range cfg.ReactionDelays {
				tb, err := testbed.New(cfg.testbedConfig())
				if err != nil {
					return nil, err
				}
				pt, err := cfg.runPoint(tb, threshold, cacheSize, delay)
				if err != nil {
					return nil, err
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

// FormatMitigationSweep renders the sweep as a benchtable.
func FormatMitigationSweep(points []MitigationPoint) string {
	headers := []string{"Thresh", "Cache", "Delay (ms)", "Detect (s)", "TTM (s)", "Collateral", "Attack drops", "Residual (pps)", "Evictions"}
	var rows [][]string
	lat := func(v float64) string {
		if v < 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.3f", v)
	}
	for _, pt := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", pt.Threshold),
			fmt.Sprintf("%d", pt.CacheSize),
			fmt.Sprintf("%.0f", pt.ReactionDelayMS),
			lat(pt.DetectionLatencyS),
			lat(pt.TimeToMitigateS),
			fmt.Sprintf("%d", pt.CollateralDrops),
			fmt.Sprintf("%d", pt.AttackDrops),
			fmt.Sprintf("%.1f", pt.ResidualAttackPPS),
			fmt.Sprintf("%d", pt.Cache.Evictions),
		})
	}
	return report.Table(headers, rows)
}
