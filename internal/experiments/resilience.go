package experiments

import (
	"fmt"
	"time"

	"ddoshield/internal/faults"
	"ddoshield/internal/ids"
	"ddoshield/internal/ml/metrics"
	"ddoshield/internal/parallel"
	"ddoshield/internal/report"
	"ddoshield/internal/sysmon"
	"ddoshield/internal/testbed"
)

// ResilienceConfig parameterizes the fault-intensity sweep.
type ResilienceConfig struct {
	// Intensities are the fault intensities to sweep (default 0, 0.25,
	// 0.5, 1). Intensity 0 is the fault-free baseline the degradation is
	// measured against.
	Intensities []float64
	// Duration is the measured window per point (default DetectDuration).
	Duration time.Duration
	// FaultSeed drives random plan generation (default Seed+77). The same
	// seed is used at every intensity, so higher intensities extend rather
	// than reshuffle the fault campaign.
	FaultSeed int64
	// Kinds enables fault types (default flap, impair, crash-loop,
	// partition).
	Kinds []faults.Kind
	// Domains runs every intensity point's testbed partitioned across this
	// many PDES domains (0 inherits Scenario.Domains; <= 1 is serial).
	// Fault campaigns are byte-identical across domain counts, so the knob
	// changes wall-clock only.
	Domains int
}

func (cfg ResilienceConfig) withDefaults(sc Scenario) ResilienceConfig {
	if len(cfg.Intensities) == 0 {
		cfg.Intensities = []float64{0, 0.25, 0.5, 1}
	}
	if cfg.Duration <= 0 {
		cfg.Duration = sc.DetectDuration
	}
	if cfg.FaultSeed == 0 {
		cfg.FaultSeed = sc.Seed + 77
	}
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = []faults.Kind{faults.LinkFlap, faults.LinkImpair, faults.CrashLoop, faults.Partition}
	}
	return cfg
}

// ResilienceRow is one model's detection quality at one fault intensity.
type ResilienceRow struct {
	Model string
	// Report holds the cross-run confusion metrics; precision and recall
	// are the degradation curves' y-axes.
	Report metrics.Report
	// Packets is the number of packets the unit classified.
	Packets uint64
}

// ResiliencePoint is one intensity step of the sweep.
type ResiliencePoint struct {
	Intensity float64
	Rows      []ResilienceRow
	// Faults are the per-kind injection counts, sorted by kind.
	Faults []faults.Counter
	// Restarts is the total supervised device restarts during the run.
	Restarts int
	// DeviceAvailabilityPct is the fleet-mean uptime share.
	DeviceAvailabilityPct float64
}

// ResilienceResult is the full sweep.
type ResilienceResult struct {
	Points []ResiliencePoint
}

// Curve extracts one model's per-intensity series of a metric, in sweep
// order — the degradation curve for plotting.
func (r *ResilienceResult) Curve(model string, metric func(metrics.Report) float64) []float64 {
	out := make([]float64, 0, len(r.Points))
	for _, pt := range r.Points {
		for _, row := range pt.Rows {
			if row.Model == model {
				out = append(out, metric(row.Report))
				break
			}
		}
	}
	return out
}

// RunResilience sweeps fault intensity and measures how each detector's
// precision and recall degrade — the robustness experiment: every point
// replays the same seeded detection campaign under a progressively harsher
// randomly generated (but seeded, hence reproducible) fault plan covering
// link flaps, impairments, crash loops and partitions.
// Every intensity point builds its own testbed, scheduler and RNG streams,
// so points run concurrently on Scenario.Workers goroutines; the shared
// trained models are only read (all Predict implementations are
// concurrency-safe). Points land in an index-addressed slice, so the result
// is byte-identical to a serial (Workers=1) run.
func (sc Scenario) RunResilience(models []TrainedModel, cfg ResilienceConfig) (*ResilienceResult, error) {
	cfg = cfg.withDefaults(sc)
	points := make([]ResiliencePoint, len(cfg.Intensities))
	errs := make([]error, len(cfg.Intensities))
	parallel.For(len(cfg.Intensities), sc.Workers, func(i int) {
		pt, err := sc.runResiliencePoint(models, cfg.Intensities[i], cfg)
		if err != nil {
			errs[i] = fmt.Errorf("resilience intensity %.2f: %w", cfg.Intensities[i], err)
			return
		}
		points[i] = *pt
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &ResilienceResult{Points: points}, nil
}

func (sc Scenario) runResiliencePoint(models []TrainedModel, intensity float64, cfg ResilienceConfig) (*ResiliencePoint, error) {
	if cfg.Domains > 0 {
		sc.Domains = cfg.Domains
	}
	var mons []*sysmon.Monitor
	tb, units, err := sc.liveDetection(models, cfg.Duration, func(tb *testbed.Testbed, _ []*ids.Unit) {
		// The fault plan targets the device fleet by name; Schedule arms it
		// relative to now, so Start/Window are offsets into the measured run.
		targets := make([]string, 0, len(tb.Devices()))
		for _, dh := range tb.Devices() {
			m := sysmon.NewMonitor(dh.Container, sc.Window)
			m.Start(tb.Scheduler())
			mons = append(mons, m)
			targets = append(targets, dh.Container.Name())
		}
		tb.Injector().Schedule(faults.Random(faults.RandomConfig{
			Seed:      cfg.FaultSeed,
			Start:     sc.DetectWarmup,
			Window:    cfg.Duration - sc.DetectWarmup,
			Intensity: intensity,
			Targets:   targets,
			Kinds:     cfg.Kinds,
		}))
	})
	if err != nil {
		return nil, err
	}

	pt := &ResiliencePoint{Intensity: intensity, Faults: tb.FaultCounters()}
	for _, u := range units {
		pt.Rows = append(pt.Rows, ResilienceRow{
			Model:   u.Name(),
			Report:  metrics.NewReport(u.Confusion()),
			Packets: u.PacketsSeen(),
		})
	}
	for _, s := range tb.DeviceSupervisors() {
		pt.Restarts += s.Restarts()
	}
	var avail float64
	for _, m := range mons {
		m.Stop()
		avail += m.Report(1).AvailabilityPct
	}
	if len(mons) > 0 {
		pt.DeviceAvailabilityPct = avail / float64(len(mons))
	}
	return pt, nil
}

// FormatResilience renders the sweep as a degradation table plus per-model
// recall curves.
func FormatResilience(res *ResilienceResult) string {
	headers := []string{"Intensity", "Model", "Precision (%)", "Recall (%)", "F1 (%)", "Avail (%)", "Restarts", "Faults"}
	var rows [][]string
	pct := func(v float64, ok bool) string {
		if !ok {
			return "n/a"
		}
		return fmt.Sprintf("%.2f", v*100)
	}
	for _, pt := range res.Points {
		faultStr := "-"
		if len(pt.Faults) > 0 {
			names := make([]string, len(pt.Faults))
			vals := make([]uint64, len(pt.Faults))
			for i, c := range pt.Faults {
				names[i], vals[i] = string(c.Kind), c.Count
			}
			faultStr = report.Counters(names, vals)
		}
		for i, row := range pt.Rows {
			r := []string{"", row.Model, pct(row.Report.Precision, row.Report.PrecisionDefined),
				pct(row.Report.Recall, row.Report.RecallDefined), pct(row.Report.F1, row.Report.F1Defined),
				"", "", ""}
			if i == 0 {
				r[0] = fmt.Sprintf("%.2f", pt.Intensity)
				r[5] = fmt.Sprintf("%.1f", pt.DeviceAvailabilityPct)
				r[6] = fmt.Sprintf("%d", pt.Restarts)
				r[7] = faultStr
			}
			rows = append(rows, r)
		}
	}
	out := report.Table(headers, rows)
	if len(res.Points) > 1 && len(res.Points[0].Rows) > 0 {
		out += "\nrecall vs intensity:\n"
		for _, row := range res.Points[0].Rows {
			curve := (&ResilienceResult{Points: res.Points}).Curve(row.Model, func(r metrics.Report) float64 { return r.Recall })
			out += fmt.Sprintf("%-8s %s\n", displayName(row.Model), report.Sparkline(curve, 0, 1))
		}
	}
	return out
}
