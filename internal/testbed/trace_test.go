package testbed

import (
	"bytes"
	"testing"
	"time"

	"ddoshield/internal/botnet"
	"ddoshield/internal/dataset"
	"ddoshield/internal/ids"
	"ddoshield/internal/telemetry/trace"
)

// alwaysMalicious is a stub detector that flags every packet, so the first
// window containing true attack traffic is a correct alert — the cheapest
// way to exercise the detection-latency anchors without training a model.
type alwaysMalicious struct{}

func (alwaysMalicious) Predict([]float64) int { return dataset.Malicious }
func (alwaysMalicious) Name() string          { return "stub" }

// TestTraceEndToEndSpans is the acceptance check for the causal-tracing
// plane: a fully sampled run must produce, for at least one attack flow and
// one benign flow, the complete hop chain origin → nic-tx → link → switch →
// nic-rx → deliver, plus IDS verdict spans and a detection latency.
func TestTraceEndToEndSpans(t *testing.T) {
	tb, err := New(Config{
		Seed:            1,
		NumDevices:      5,
		MeanThink:       2 * time.Second,
		ScanInterval:    100 * time.Millisecond,
		TraceSampleRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Tracer() == nil {
		t.Fatal("TraceSampleRate > 0 must attach a tracer")
	}
	unit := ids.New(ids.Config{
		Model:   alwaysMalicious{},
		Window:  time.Second,
		Labeler: tb.Labeler(),
		Meter:   tb.IDSContainer(),
	})
	tb.AttachIDS(unit)
	tb.Start()

	// Infection phase, then one commanded SYN flood.
	if err := tb.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	tb.C2().Broadcast(botnet.Command{
		Type: botnet.AttackSYN, Target: tb.TServerAddr(), Port: 80,
		Duration: 5 * time.Second, PPS: 200,
	})
	if err := tb.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	unit.Flush()

	spans := tb.Tracer().Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}

	// Collect the set of hop names per trace, and each trace's kind.
	names := map[trace.TraceID]map[string]bool{}
	kinds := map[trace.TraceID]trace.Kind{}
	verdicts := 0
	for i := range spans {
		sp := &spans[i]
		m := names[sp.Trace]
		if m == nil {
			m = map[string]bool{}
			names[sp.Trace] = m
		}
		m[sp.Name] = true
		if sp.Root() {
			kinds[sp.Trace] = sp.Kind
		}
		if sp.Name == "ids-window" && (sp.Tag == "alert" || sp.Tag == "clear") {
			verdicts++
		}
	}
	chain := []string{"nic-tx", "link", "switch", "nic-rx", "deliver"}
	complete := func(id trace.TraceID, origin string) bool {
		m := names[id]
		if !m[origin] {
			return false
		}
		for _, hop := range chain {
			if !m[hop] {
				return false
			}
		}
		return true
	}
	var haveAttack, haveBenign bool
	for id, k := range kinds {
		switch k {
		case trace.KindAttack:
			if complete(id, "flood-syn") {
				haveAttack = true
			}
		case trace.KindBenign:
			if complete(id, "tcp-tx") {
				haveBenign = true
			}
		}
	}
	if !haveAttack {
		t.Error("no attack trace with the full flood-syn → … → deliver hop chain")
	}
	if !haveBenign {
		t.Error("no benign trace with the full tcp-tx → … → deliver hop chain")
	}
	if verdicts == 0 {
		t.Error("no ids-window spans carrying a verdict tag")
	}

	d, ok := tb.DetectionLatency(unit)
	if !ok {
		t.Fatal("detection latency not measurable despite alerts")
	}
	if d < 0 {
		t.Fatalf("negative detection latency %s", d)
	}
	sum := tb.Summary()
	if !bytes.Contains([]byte(sum), []byte("detection    unit=ids latency=")) {
		t.Fatalf("Summary missing detection line:\n%s", sum)
	}
	if !bytes.Contains([]byte(sum), []byte("trace        finished=")) {
		t.Fatalf("Summary missing trace line:\n%s", sum)
	}
}

// TestTraceDeterministicOutput runs the same seeded scenario twice and
// requires byte-identical serialized trace output — the property that makes
// trace diffs meaningful across runs.
func TestTraceDeterministicOutput(t *testing.T) {
	run := func() ([]byte, string) {
		tb, err := New(Config{
			Seed:            11,
			NumDevices:      4,
			MeanThink:       time.Second,
			ScanInterval:    100 * time.Millisecond,
			TraceSampleRate: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		tb.Start()
		if err := tb.Run(45 * time.Second); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteSpans(&buf, tb.Tracer().Spans()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), tb.Summary()
	}
	a, sumA := run()
	b, sumB := run()
	if len(a) == 0 {
		t.Fatal("empty trace output")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed trace outputs differ (%d vs %d bytes)", len(a), len(b))
	}
	if sumA != sumB {
		t.Fatalf("same-seed summaries differ:\n%s\n---\n%s", sumA, sumB)
	}
}
