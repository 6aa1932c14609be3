package sysmon

import (
	"testing"
	"time"

	"ddoshield/internal/sim"
)

// fakeTarget is a scriptable Metered.
type fakeTarget struct {
	cpu time.Duration
	mem int64
}

func (f *fakeTarget) CPUTime() time.Duration { return f.cpu }
func (f *fakeTarget) MemBytes() int64        { return f.mem }

func TestMonitorSamplesDeltas(t *testing.T) {
	s := sim.NewScheduler()
	target := &fakeTarget{}
	m := NewMonitor(target, time.Second)
	// Burn 10 ms of "CPU" and hold 100 KiB during each of 5 intervals.
	// The burner is scheduled before the monitor so same-instant FIFO
	// ordering burns first, samples second.
	tk := s.Every(time.Second, func() {
		target.cpu += 10 * time.Millisecond
		target.mem = 100 << 10
	})
	defer tk.Stop()
	m.Start(s)
	if err := s.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	m.Stop()
	samples := m.samples
	if len(samples) != 5 {
		t.Fatalf("samples = %d", len(samples))
	}
	for i, smp := range samples {
		if smp.CPU != 10*time.Millisecond {
			t.Fatalf("sample %d CPU = %v (delta, not cumulative)", i, smp.CPU)
		}
		if smp.MemBytes != 100<<10 {
			t.Fatalf("sample %d mem = %d", i, smp.MemBytes)
		}
	}
}

func TestReportAggregation(t *testing.T) {
	s := sim.NewScheduler()
	target := &fakeTarget{}
	m := NewMonitor(target, time.Second)
	tk := s.Every(time.Second, func() {
		target.cpu += 5 * time.Millisecond
		target.mem = 200 << 10
	})
	defer tk.Stop()
	m.Start(s)
	if err := s.Run(4 * sim.Second); err != nil {
		t.Fatal(err)
	}
	// 5 ms per 1 s interval = 0.5%; with SpeedFactor 100 => 50%.
	r := m.Report(100)
	if r.CPUPercent < 49.9 || r.CPUPercent > 50.1 {
		t.Fatalf("CPUPercent = %v, want 50", r.CPUPercent)
	}
	if r.PeakMemKb != 200 {
		t.Fatalf("peak mem = %v", r.PeakMemKb)
	}
}

func TestReportSaturatesAt100(t *testing.T) {
	s := sim.NewScheduler()
	target := &fakeTarget{}
	m := NewMonitor(target, time.Second)
	tk := s.Every(time.Second, func() { target.cpu += 50 * time.Millisecond })
	defer tk.Stop()
	m.Start(s)
	if err := s.Run(3 * sim.Second); err != nil {
		t.Fatal(err)
	}
	r := m.Report(1000) // 5% * 1000 would be 5000%: clamp
	if r.CPUPercent != 100 {
		t.Fatalf("CPUPercent = %v, want clamp 100", r.CPUPercent)
	}
}

func TestEmptyReport(t *testing.T) {
	m := NewMonitor(&fakeTarget{}, time.Second)
	r := m.Report(1)
	if r != (Report{}) {
		t.Fatalf("empty report = %+v", r)
	}
}

func TestMonitorIdempotentStartStop(t *testing.T) {
	s := sim.NewScheduler()
	m := NewMonitor(&fakeTarget{}, time.Second)
	m.Start(s)
	m.Start(s)
	if err := s.Run(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	m.Stop()
	m.Stop()
	if len(m.samples) != 2 {
		t.Fatalf("samples = %d (double start duplicated ticker?)", len(m.samples))
	}
}
