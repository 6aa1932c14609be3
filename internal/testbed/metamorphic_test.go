package testbed

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// Metamorphic relations: properties that tie two runs of the simulator
// together where no single run has a reference output to compare with.

// TestTraceSamplingChangesOnlyTraceOutputs runs one defended campaign (a
// threshold-rule IDS and a firewall attached from the start, churn, lossy
// links and a fault plan) untraced and with every flow traced. Tracing
// observes; it may not decide. So the two runs must agree byte for byte on
// the Summary without its trace line and on the Prometheus text without
// the trace_* series — detection latency and time-to-mitigate included —
// whichever flows the tracer sampled. (ids_window_cpu_us, host CPU time, is
// left out of the comparison too.)
func TestTraceSamplingChangesOnlyTraceOutputs(t *testing.T) {
	cfg := faultedCampaign(14 * time.Second)
	cfg.ScanInterval = 100 * time.Millisecond
	run := func(rate float64) (summary, prom string) {
		c := cfg
		c.TraceSampleRate = rate
		a := artifacts(t, c, mitigatedDrive)
		return dropLines(a.summary, "trace "), dropLines(a.prom, "trace_", "ids_window_cpu_us")
	}
	offSummary, offProm := run(0)
	onSummary, onProm := run(1)
	for _, want := range []string{"detection    unit=ids latency=", "time-to-mitigate="} {
		if !strings.Contains(offSummary, want) || strings.Contains(offSummary, want+"n/a") {
			t.Fatalf("untraced run has no %q figure:\n%s", want, offSummary)
		}
	}
	if onSummary != offSummary {
		t.Fatalf("Summary depends on the trace sample rate\n--- rate 0 ---\n%s--- rate 1 ---\n%s", offSummary, onSummary)
	}
	if onProm != offProm {
		t.Fatalf("Prometheus text outside trace_* depends on the trace sample rate:\n%s", lineDiff(offProm, onProm))
	}
}

// dropLines returns s without the lines that begin with any of prefixes,
// or that name one of them as a series (a "# HELP"/"# TYPE" line).
func dropLines(s string, prefixes ...string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		if !slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(name, p) }) {
			b.WriteString(line)
		}
	}
	return b.String()
}

// lineDiff lists the lines of a missing from b and of b missing from a, for
// a failure message.
func lineDiff(a, b string) string {
	var out strings.Builder
	for _, d := range [][3]string{{"- ", a, b}, {"+ ", b, a}} {
		other := strings.Split(d[2], "\n")
		for _, l := range strings.Split(d[1], "\n") {
			if !slices.Contains(other, l) {
				out.WriteString(d[0] + l + "\n")
			}
		}
	}
	return out.String()
}
