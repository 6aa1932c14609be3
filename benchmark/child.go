package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ddoshield/internal/ml/modelio"
)

// processStart is the zero of span timestamps.
var processStart = time.Now()

// Child modes.
const (
	modeRep         = "rep"          // one repeat of a workload
	modePrepModels  = "prep-models"  // generate the corpus, train, save bundles
	modePrepCapture = "prep-capture" // prep-models plus the ids-replay capture
	modeLayers      = "layers"       // the micro-cost suite
)

// Variants of a repeat, used by the traced run's comparisons.
const (
	variantTraceOff = "trace-off" // paper10-live with TraceSampleRate 0
)

type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// repResult is what a child reports on the last line of its stdout.
type repResult struct {
	Workload string `json:"workload"`
	// SetupS is the program's work before the timed region (model loading,
	// testbed.New, Start, the infection lead); TimedS the timed region's
	// wall clock; SimS the simulated (ids-replay: captured) seconds it
	// covered.
	SetupS     float64 `json:"setup_s"`
	TimedS     float64 `json:"timed_s"`
	SimS       float64 `json:"sim_s"`
	LiveHeapMB float64 `json:"live_heap_mb"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	Events     uint64  `json:"events"`
	// Digest fingerprints the run's deterministic outputs.
	Digest   string                   `json:"digest"`
	Checks   []checkResult            `json:"checks,omitempty"`
	Counters map[string]float64       `json:"counters"`
	Alerts   map[string]string        `json:"alerts,omitempty"`
	Phases   map[string]phaseMs       `json:"phases,omitempty"`
	Windows  map[string]windowPercent `json:"windows,omitempty"`
	Error    string                   `json:"error,omitempty"`
}

// windowPercent is one model's traced per-window wall clock in ids-replay.
type windowPercent struct {
	P50 float64 `json:"p50_us"`
	P90 float64 `json:"p90_us"`
	N   int     `json:"n"`
}

func (r *repResult) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, checkResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// childOptions are the flags a measurement child is started with.
type childOptions struct {
	workload  string
	mode      string
	variant   string
	seed      int64
	smoke     bool
	traced    bool
	dir       string
	traceFile string
}

func parseChild(args []string) (childOptions, error) {
	var o childOptions
	fs := flag.NewFlagSet("benchmark-child", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "")
	fs.StringVar(&o.mode, "mode", modeRep, "")
	fs.StringVar(&o.variant, "variant", "", "")
	fs.Int64Var(&o.seed, "seed", 42, "")
	fs.BoolVar(&o.smoke, "smoke", false, "")
	fs.BoolVar(&o.traced, "traced", false, "")
	fs.StringVar(&o.dir, "dir", "", "")
	fs.StringVar(&o.traceFile, "tracefile", "", "")
	return o, fs.Parse(args)
}

// childMain runs one measurement in this (fresh) process and prints its
// result as one JSON line. The exit code is nonzero only when the result
// could not be produced; failed checks travel inside the result.
func childMain(args []string, stdout io.Writer) int {
	o, err := parseChild(args)
	if err != nil {
		return 2
	}
	res, err := runChild(o)
	if err != nil {
		res = &repResult{Workload: o.workload, Error: err.Error()}
	}
	data, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", merr)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if err != nil {
		return 1
	}
	return 0
}

func runChild(o childOptions) (res *repResult, err error) {
	// A panic in the program under test is a failed operation to report,
	// not a crash of the harness.
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	switch o.mode {
	case modePrepModels, modePrepCapture:
		res = &repResult{Workload: o.workload, Counters: map[string]float64{}}
		if o.mode == modePrepCapture {
			err = prepCapture(o.seed, o.smoke, o.dir, res)
		} else {
			err = prepModels(o.seed, o.smoke, o.dir, res)
		}
		res.PeakRSSMB = peakRSSMB()
		return res, err
	case modeLayers:
		return runLayers(o)
	case modeRep:
		return runRep(o)
	}
	return nil, fmt.Errorf("unknown child mode %q", o.mode)
}

func runRep(o childOptions) (*repResult, error) {
	var tr *tracer
	if o.traced {
		tr = &tracer{workload: o.workload}
	}
	var res *repResult
	var err error
	if o.workload == wlIDSReplay {
		res, err = runReplay(o.dir, tr)
		if err == nil && tr != nil {
			res.Windows = windowStats(tr)
		}
	} else {
		var c campaign
		if c, err = newCampaign(o.workload, o.seed, o.smoke); err != nil {
			return nil, err
		}
		if o.variant == variantTraceOff {
			c.Cfg.TraceSampleRate = 0
		}
		// The engine profiler rides the traced run of the PDES workloads;
		// it observes only, which the digest comparison re-checks.
		c.Cfg.Profile = o.traced && c.Cfg.Domains > 1
		var bundles []modelio.Bundle
		loadStart := time.Now()
		if c.Detect == detectModels {
			if bundles, err = loadBundles(o.dir); err != nil {
				return nil, err
			}
		}
		loadS := time.Since(loadStart).Seconds()
		if res, err = runSim(c, bundles, tr); err == nil {
			// Loading the saved models is part of this repeat's set-up.
			res.SetupS += loadS
		}
	}
	if err != nil {
		return nil, err
	}
	return res, tr.write(o.traceFile, o.seed, res.Digest, res.Phases)
}

// windowStats folds the traced replay's per-window spans by model.
func windowStats(tr *tracer) map[string]windowPercent {
	us := map[string][]float64{}
	for _, s := range tr.spans {
		if model, ok := strings.CutPrefix(s.Name, "window:"); ok {
			us[model] = append(us[model], float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	out := make(map[string]windowPercent, len(us))
	for model, xs := range us {
		out[model] = windowPercent{P50: median(xs), P90: quantile(xs, 0.9), N: len(xs)}
	}
	return out
}
