package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval recorded by the harness around its own calls
// into a layer. Times are nanoseconds since the child process started;
// Parent is 0 for a root span. Attrs carries the counter deltas read at the
// span's closing boundary.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Workload string             `json:"workload"`
	Name     string             `json:"name"`
	StartNs  int64              `json:"start_ns"`
	EndNs    int64              `json:"end_ns"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the child exits. A nil tracer records
// nothing, so untraced runs share the code path without paying for it.
type tracer struct {
	workload string
	spans    []span
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Workload: t.workload, Name: name,
		StartNs: time.Since(processStart).Nanoseconds(),
	})
	return len(t.spans)
}

func (t *tracer) end(id int, attrs map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.EndNs = time.Since(processStart).Nanoseconds()
	s.Attrs = attrs
}

// traceFile is the document written to <out>/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Host     hostBlock          `json:"host"`
	Digest   string             `json:"digest"`
	Phases   map[string]phaseMs `json:"phases_ms_per_sim_s,omitempty"`
	Spans    []span             `json:"spans"`
}

// phaseMs is one campaign phase's wall clock per simulated second.
type phaseMs struct {
	P50 float64 `json:"p50"`
	// Tail is the highest percentile with at least ten samples beyond it;
	// empty when the phase has too few slices to state one.
	Tail      string  `json:"tail,omitempty"`
	TailValue float64 `json:"tail_value,omitempty"`
	N         int     `json:"n"`
}

func (t *tracer) write(path string, seed int64, digest string, phases map[string]phaseMs) error {
	if t == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{
		Workload: t.workload, Seed: seed, Host: readHost(), Digest: digest,
		Phases: phases, Spans: t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// phaseStats folds per-slice walls (ms per simulated second) by phase.
func phaseStats(byPhase map[string][]float64) map[string]phaseMs {
	out := make(map[string]phaseMs, len(byPhase))
	for name, xs := range byPhase {
		p := phaseMs{P50: median(xs), N: len(xs)}
		if label, v, ok := tailPercentile(xs); ok {
			p.Tail, p.TailValue = label, v
		}
		out[name] = p
	}
	return out
}
