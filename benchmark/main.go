// Command benchmark is the repository's one benchmark: six campaigns, the
// end-to-end metrics a user of the testbed sees, and a traced per-layer
// budget. Every later performance claim names one metric and one workload
// from the tables in spec.go.
//
//	go run ./benchmark -seed 42          every workload, 1 warm-up + 5 timed repeats
//	go run ./benchmark -trace            the traced run: per-layer metrics, span files
//	go run ./benchmark -verify-repeat    two sets back to back, compared within bounds
//	go run ./benchmark -workload fleet120-serial -seed 7 -seconds 10 -trace 0
//	                                     one workload, one JSON result line (the
//	                                     form the PR driver calls)
//
// Every layer is measured from outside, by timing calls into its public
// functions; nothing under internal/ knows the benchmark exists. See
// README.md for what each workload stresses and bypasses.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// childEnv marks a process as a measurement child. Both main and the test
// binary's TestMain dispatch on it, so the harness can re-execute itself
// whichever binary it was compiled into.
const childEnv = "DDOSHIELD_BENCH_CHILD"

// options are the driver-side flags.
type options struct {
	seed         int64
	workload     string
	seconds      float64
	trace        bool
	verifyRepeat bool
	smoke        bool
	outDir       string
}

// normalizeTraceArg rewrites "-trace 0|1" (the PR driver's spelling) into
// "-trace=0|1" so the flag package, whose boolean flags take no separate
// value, accepts both it and the bare "-trace" of the README.
func normalizeTraceArg(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.Int64Var(&o.seed, "seed", 42, "workload seed: generates every campaign input")
	fs.StringVar(&o.workload, "workload", "", "run one workload and print one JSON result line (default: all)")
	fs.Float64Var(&o.seconds, "seconds", 10, "with -workload: keep repeating until this many seconds were timed")
	fs.BoolVar(&o.trace, "trace", false, "traced run: per-layer metrics and span files instead of end-to-end metrics")
	fs.BoolVar(&o.verifyRepeat, "verify-repeat", false, "run two full sets and fail if their medians disagree beyond the bounds")
	fs.BoolVar(&o.smoke, "smoke", false, "cut every campaign to about a second of wall clock (schema test sizing)")
	fs.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for result and span files")
	if err := fs.Parse(normalizeTraceArg(args)); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.workload != "" && specOf(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	return o, nil
}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	os.Exit(run(o, os.Stdout))
}
