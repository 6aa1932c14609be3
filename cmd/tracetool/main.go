// Command tracetool analyzes causal-trace span files produced by a traced
// testbed run: the spans.jsonl that ddoshield -artifacts writes for a
// scenario with a traceSampleRate.
//
// The default report is the per-hop latency breakdown plus trace-level
// aggregates. Options add the top-N slowest flows, the critical path of one
// trace, and a chrome://tracing export:
//
//	tracetool -in spans.jsonl
//	tracetool -in spans.jsonl -top 10
//	tracetool -in spans.jsonl -mitigated
//	tracetool -in spans.jsonl -trace 17
//	tracetool -in spans.jsonl -chrome spans-chrome.json
package main

import (
	"flag"
	"fmt"
	"os"

	"ddoshield/internal/telemetry/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracetool:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in        = flag.String("in", "", "span JSONL file from ddoshield -artifacts (spans.jsonl; required)")
		top       = flag.Int("top", 0, "also list the N slowest flows")
		mitigated = flag.Bool("mitigated", false, "list only the flows cut by the mitigation verdict cache (drop cause \"mitigated\")")
		traceID   = flag.Uint64("trace", 0, "print the critical path of this trace ID")
		chrome    = flag.String("chrome", "", "write a chrome://tracing export of all spans here")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		return fmt.Errorf("-in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	spans, err := trace.ReadSpans(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("%s holds no spans", *in)
	}

	sums := trace.Summaries(spans)
	delivered, dropped := 0, 0
	for _, s := range sums {
		if s.Delivered() {
			delivered++
		} else {
			dropped++
		}
	}
	fmt.Printf("%d spans across %d traces (%d delivered, %d dropped)\n\n",
		len(spans), len(sums), delivered, dropped)

	fmt.Println("Per-hop latency breakdown:")
	fmt.Println("hop             count   drops        mean         min         max")
	for _, h := range trace.Breakdown(spans) {
		fmt.Printf("%-14s %6d  %6d  %10s  %10s  %10s\n",
			h.Name, h.Count, h.Drops, h.Mean(), h.Min, h.Max)
	}

	if *top > 0 {
		fmt.Printf("\nTop %d slowest flows:\n", *top)
		printFlows(trace.TopSlowest(sums, *top))
	}

	if *mitigated {
		var hit []trace.TraceSummary
		for _, s := range sums {
			if s.Drop == trace.DropMitigated {
				hit = append(hit, s)
			}
		}
		fmt.Printf("\n%d of %d dropped flows were cut by mitigation:\n", len(hit), dropped)
		printFlows(hit)
	}

	if *traceID != 0 {
		path := trace.CriticalPath(spans, trace.TraceID(*traceID))
		if path == nil {
			return fmt.Errorf("trace %d not found (or its root span was evicted)", *traceID)
		}
		fmt.Printf("\nCritical path of trace %d:\n", *traceID)
		origin := path[0].Start
		for _, s := range path {
			marker := ""
			if s.Dropped() {
				marker = "  DROP " + s.Drop.String()
			} else if s.Tag != "" {
				marker = "  [" + s.Tag + "]"
			}
			fmt.Printf("  +%-12s %-14s %-18s span=%-6d dur=%s%s\n",
				(s.Start - origin).Duration(), s.Name, s.Actor, uint64(s.ID),
				s.Latency(), marker)
		}
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			return err
		}
		if err := trace.WriteChromeSpans(f, spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nchrome://tracing export written to %s\n", *chrome)
	}
	return nil
}

// printFlows renders one trace-summary table row per flow (shared by -top
// and -mitigated).
func printFlows(sums []trace.TraceSummary) {
	fmt.Println("trace  kind     latency      spans  drop            flow")
	for _, s := range sums {
		drop := "-"
		if !s.Delivered() {
			drop = s.Drop.String()
		}
		fmt.Printf("%5d  %-7s  %10s  %5d  %-14s  %s (%s)\n",
			uint64(s.Trace), s.Kind, s.Latency(), s.Spans, drop,
			trace.FlowString(s.Flow), s.Origin)
	}
}
