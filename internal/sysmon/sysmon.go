// Package sysmon measures resource consumption of testbed components — the
// `docker stats` analog behind Table II's sustainability evaluation. A
// Monitor samples any Metered component (containers and the IDS unit both
// qualify) once per simulated interval, recording the compute time consumed
// and the memory held.
//
// CPU accounting caveat: the simulation host is far faster than the IoT-
// class hardware the paper targets, so raw compute-per-window is converted
// to a CPU percentage through a configurable SpeedFactor (how many times
// slower the reference IoT device is than the simulation host). The factor
// scales all models identically, so Table II's comparative shape is
// preserved regardless of its value.
package sysmon

import (
	"time"

	"ddoshield/internal/ml/metrics"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
)

// Metered is anything whose cumulative compute time and current memory can
// be sampled.
type Metered interface {
	CPUTime() time.Duration
	MemBytes() int64
}

// Sample is one per-interval measurement.
type Sample struct {
	// Time is the sampling instant.
	Time sim.Time
	// CPU is the compute time consumed during the interval.
	CPU time.Duration
	// MemBytes is the memory held at the sampling instant.
	MemBytes int64
}

// Monitor periodically samples a Metered component.
type Monitor struct {
	target   Metered
	interval time.Duration
	ticker   *sim.Ticker
	lastCPU  time.Duration
	samples  []Sample
}

// NewMonitor returns an unstarted monitor sampling target every interval
// (default 1 s) of simulated time.
func NewMonitor(target Metered, interval time.Duration) *Monitor {
	if interval <= 0 {
		interval = time.Second
	}
	return &Monitor{target: target, interval: interval}
}

// Start begins sampling on sched.
func (m *Monitor) Start(sched *sim.Scheduler) {
	if m.ticker != nil {
		return
	}
	m.lastCPU = m.target.CPUTime()
	m.ticker = sched.Every(m.interval, func() {
		cpu := m.target.CPUTime()
		m.samples = append(m.samples, Sample{
			Time:     sched.Now(),
			CPU:      cpu - m.lastCPU,
			MemBytes: m.target.MemBytes(),
		})
		m.lastCPU = cpu
	})
}

// Stop halts sampling.
func (m *Monitor) Stop() {
	if m.ticker != nil {
		m.ticker.Stop()
		m.ticker = nil
	}
}

// Samples returns the recorded timeline.
func (m *Monitor) Samples() []Sample {
	out := make([]Sample, len(m.samples))
	copy(out, m.samples)
	return out
}

// Publish registers the monitor's Table II aggregates as live registry
// gauges (sysmon_cpu_percent, sysmon_mem_kb, sysmon_mem_peak_kb,
// sysmon_intervals), labeled target=name. The gauges are evaluated at
// export time straight through Report(), so a registry snapshot and a
// Report(speedFactor) call can never disagree.
func (m *Monitor) Publish(reg *telemetry.Registry, name string, speedFactor float64) {
	target := telemetry.L("target", name)
	reg.RegisterGaugeFunc(func() float64 { return m.Report(speedFactor).CPUPercent },
		"sysmon_cpu_percent", target)
	reg.RegisterGaugeFunc(func() float64 { return m.Report(speedFactor).MeanMemKb },
		"sysmon_mem_kb", target)
	reg.RegisterGaugeFunc(func() float64 { return m.Report(speedFactor).PeakMemKb },
		"sysmon_mem_peak_kb", target)
	reg.RegisterGaugeFunc(func() float64 { return float64(len(m.samples)) },
		"sysmon_intervals", target)
}

// Report aggregates a monitor's samples into Table II's three columns.
type Report struct {
	// CPUPercent is the mean per-interval CPU share, scaled by SpeedFactor.
	CPUPercent float64
	// MeanMemKb and PeakMemKb are memory in the paper's Kb units.
	MeanMemKb float64
	PeakMemKb float64
	// Intervals is the number of samples aggregated.
	Intervals int
}

// Report aggregates the samples. speedFactor is the assumed slowdown of
// the reference IoT device versus the simulation host (see package doc).
func (m *Monitor) Report(speedFactor float64) Report {
	if speedFactor <= 0 {
		speedFactor = 1
	}
	var r Report
	r.Intervals = len(m.samples)
	if r.Intervals == 0 {
		return r
	}
	cpuShares := make([]float64, 0, len(m.samples))
	var memSum float64
	for _, s := range m.samples {
		share := float64(s.CPU) / float64(m.interval) * speedFactor * 100
		if share > 100 {
			share = 100 // a real device saturates at 100%
		}
		cpuShares = append(cpuShares, share)
		mem := float64(s.MemBytes) / 1024
		memSum += mem
		if mem > r.PeakMemKb {
			r.PeakMemKb = mem
		}
	}
	r.CPUPercent = metrics.Mean(cpuShares)
	r.MeanMemKb = memSum / float64(len(m.samples))
	return r
}
