package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

const (
	// timedRepeats is how many timed repeats (after one warm-up) the
	// all-workloads run makes per workload. It is fixed so that every run is
	// comparable with baseline.json.
	timedRepeats = 5
	// maxRepeats stops a timed-seconds loop whose repeats are implausibly short.
	maxRepeats = 64
)

// runner is the driver process: it generates nothing and measures nothing
// itself, it starts one fresh child per repeat (so GC state, pools and RSS
// never leak between repeats) and folds their reports.
type runner struct {
	ctx    context.Context
	o      options
	exe    string
	stderr io.Writer
}

// spawn runs one child to completion and parses the result on the last line
// of its stdout. A child that could not produce a result is an error.
func (r *runner) spawn(args ...string) (*repResult, error) {
	if r.o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(r.ctx, r.exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = r.stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res repResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("child %v: %w", args, runErr)
		}
		return nil, fmt.Errorf("child %v printed no result: %w", args, err)
	}
	if res.Error != "" {
		return nil, fmt.Errorf("child %v: %s", args, res.Error)
	}
	return &res, nil
}

func (r *runner) rep(workload string, seed int64, dir string, extra ...string) (*repResult, error) {
	args := []string{"-workload", workload, "-mode", modeRep, "-seed", strconv.FormatInt(seed, 10), "-dir", dir}
	return r.spawn(append(args, extra...)...)
}

func (r *runner) prep(workload, mode string, seed int64, dir string) (*repResult, error) {
	return r.spawn("-workload", workload, "-mode", mode, "-seed", strconv.FormatInt(seed, 10), "-dir", dir)
}

// prepMode names the input generation a workload needs before its repeats.
func prepMode(workload string) string {
	switch workload {
	case wlPaper10Live:
		return modePrepModels
	case wlIDSReplay:
		return modePrepCapture
	}
	return ""
}

// policy says how many repeats a set makes: a fixed count, or as many as it
// takes to have timed the given number of seconds.
type policy struct {
	warmups int
	repeats int
	seconds float64
}

// outcome is one workload's set of repeats, folded.
type outcome struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Metrics  map[string]summary   `json:"metrics"`
	Samples  map[string][]float64 `json:"samples"`
	// Digest and Events are informational: two commits whose digests agree
	// simulated the same thing.
	Digest    string   `json:"digest"`
	Events    uint64   `json:"events"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	prep      *repResult
	reps      []*repResult
}

func (o *outcome) attempt(ok bool, format string, args ...any) {
	o.Attempted++
	if !ok {
		o.Failed++
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) failShare() float64 {
	if o.Attempted == 0 {
		return 0
	}
	return float64(o.Failed) / float64(o.Attempted)
}

// child books one child's run: the run itself as an attempt, then each of
// the checks it made. It reports whether there is a result to use.
func (o *outcome) child(res *repResult, err error, what string) bool {
	o.attempt(err == nil, "%s: %s failed: %v", o.Workload, what, err)
	if err != nil {
		return false
	}
	for _, c := range res.Checks {
		o.attempt(c.OK, "%s: check %s failed: %s", o.Workload, c.Name, c.Detail)
	}
	return true
}

func (r *runner) runDir() (string, func(), error) {
	if err := os.MkdirAll(r.o.outDir, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(r.o.outDir, "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// runWorkload makes one untraced set of repeats of a workload.
func (r *runner) runWorkload(workload string, seed int64, p policy) (*outcome, error) {
	out := &outcome{Workload: workload, Seed: seed, Samples: map[string][]float64{}}
	dir, cleanup, err := r.runDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	if mode := prepMode(workload); mode != "" {
		out.prep, err = r.prep(workload, mode, seed, dir)
		if !out.child(out.prep, err, "input generation") {
			return out, nil
		}
	}
	for i := 0; i < p.warmups; i++ {
		if _, err := r.rep(workload, seed, dir); err != nil {
			fmt.Fprintf(r.stderr, "benchmark: %s warm-up: %v\n", workload, err)
		}
	}
	var timed float64
	for n := 0; n < maxRepeats; n++ {
		if p.repeats > 0 && n >= p.repeats || p.repeats == 0 && timed >= p.seconds {
			break
		}
		res, err := r.rep(workload, seed, dir)
		if !out.child(res, err, fmt.Sprintf("repeat %d", n+1)) {
			if out.Failed >= 3 {
				break // a workload that cannot run will not start running
			}
			continue
		}
		out.reps = append(out.reps, res)
		timed += res.TimedS
	}
	if len(out.reps) == 0 {
		return out, nil
	}
	first := out.reps[0]
	out.Digest, out.Events = first.Digest, first.Events
	for i, res := range out.reps[1:] {
		out.attempt(res.Digest == first.Digest, "%s: repeat %d digest %s differs from repeat 1's %s", workload, i+2, res.Digest, first.Digest)
	}
	if workload == wlFleetPDES {
		// The oracle for the partitioned engine is the serial run of the
		// same campaign.
		serial, err := r.rep(wlFleetSerial, seed, dir)
		out.attempt(err == nil && serial.Digest == first.Digest, "%s: serial reference: digest %v vs %s (err %v)", workload, digestOf(serial), first.Digest, err)
	}

	for _, res := range out.reps {
		out.Samples[mSetup] = append(out.Samples[mSetup], res.SetupS)
		out.Samples[mSimRate] = append(out.Samples[mSimRate], res.SimS/res.TimedS)
		out.Samples[mLiveHeap] = append(out.Samples[mLiveHeap], res.LiveHeapMB)
		out.Samples[mPeakRSS] = append(out.Samples[mPeakRSS], res.PeakRSSMB)
	}
	if workload == wlPaper10Live {
		// Generating the corpus and training the models is set-up here (on
		// ids-replay it only produces the input). It was done once, so the
		// set's set-up time is one sample, training plus the median repeat's
		// own set-up, and training's memory counts towards the peak.
		out.Samples[mSetup] = []float64{out.prep.SetupS + median(out.Samples[mSetup])}
		for i, rss := range out.Samples[mPeakRSS] {
			out.Samples[mPeakRSS][i] = max(rss, out.prep.PeakRSSMB)
		}
	}
	out.Metrics = make(map[string]summary, len(out.Samples))
	for name, xs := range out.Samples {
		out.Metrics[name] = summarize(xs)
	}
	return out, nil
}

func digestOf(res *repResult) string {
	if res == nil {
		return "none"
	}
	return res.Digest
}

// driverLine is the one JSON object the PR driver reads from the last line
// of stdout.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printDriverLine(w io.Writer, out *outcome, specs []metricSpec, values map[string]float64) error {
	line := driverLine{Correct: out.Failed == 0, Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]driverValue{}}
	for _, m := range specs {
		line.Metrics[m.Name] = driverValue{Value: values[m.Name], Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// runOne is the PR driver's form: one workload, one result line.
func (r *runner) runOne(stdout io.Writer) error {
	if r.o.trace {
		out, layers, err := r.runTraced(r.o.workload, r.o.seed)
		if err != nil {
			return err
		}
		printFailures(r.stderr, out)
		if out.Attempted == 0 {
			return fmt.Errorf("%s: nothing was attempted", r.o.workload)
		}
		return printDriverLine(stdout, out, perLayer, layers)
	}
	out, err := r.runWorkload(r.o.workload, r.o.seed, policy{seconds: r.o.seconds})
	if err != nil {
		return err
	}
	printFailures(r.stderr, out)
	if len(out.reps) == 0 {
		return fmt.Errorf("%s: no repeat completed", r.o.workload)
	}
	values := map[string]float64{}
	for name, s := range out.Metrics {
		values[name] = s.Median
	}
	return printDriverLine(stdout, out, endToEnd, values)
}

func printFailures(w io.Writer, out *outcome) {
	for _, f := range out.Failures {
		fmt.Fprintln(w, "benchmark: FAILED", f)
	}
}

// resultsFile is <out>/results.json.
type resultsFile struct {
	Host      hostBlock            `json:"host"`
	Seed      int64                `json:"seed"`
	Smoke     bool                 `json:"smoke,omitempty"`
	EndToEnd  []metricSpec         `json:"end_to_end"`
	Workloads []*outcome           `json:"workloads"`
	Layers    map[string]layerSet  `json:"layers,omitempty"`
	PerLayer  []metricSpec         `json:"per_layer,omitempty"`
	Second    []*outcome           `json:"second_set,omitempty"`
	Spreads   map[string]spreadRow `json:"verify_repeat,omitempty"`
}

// layerSet is one traced workload's per-layer metrics.
type layerSet map[string]float64

type spreadRow struct {
	First  float64 `json:"first_median"`
	Second float64 `json:"second_median"`
	Share  float64 `json:"disagreement"`
	Bound  float64 `json:"bound"`
	Agree  bool    `json:"agree"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printHost(w io.Writer, h hostBlock) {
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n", h.CPUModel, h.NumCPU, h.GoMaxProcs, h.GoVersion, h.Commit)
}

func printOutcome(w io.Writer, out *outcome) {
	fmt.Fprintf(w, "\n%s  (seed %d, digest %s, %d events in the timed region)\n", out.Workload, out.Seed, out.Digest, out.Events)
	for _, m := range endToEnd {
		s := out.Metrics[m.Name]
		fmt.Fprintf(w, "  %-18s %12.4f %-13s min %12.4f  max %12.4f  n=%d\n", m.Name, s.Median, m.Unit, s.Min, s.Max, s.N)
	}
	fmt.Fprintf(w, "  %-18s %12.4f %-13s %d failed of %d attempted\n", mFailShare, out.failShare(), "ratio", out.Failed, out.Attempted)
	for _, f := range out.Failures {
		fmt.Fprintln(w, "  FAILED", f)
	}
}

// runSet runs every workload once through the given policy.
func (r *runner) runSet(stdout io.Writer, p policy) ([]*outcome, error) {
	var set []*outcome
	for _, wl := range workloads {
		out, err := r.runWorkload(wl.Name, r.o.seed, p)
		if err != nil {
			return nil, err
		}
		printOutcome(stdout, out)
		set = append(set, out)
	}
	return set, nil
}

func failed(sets ...[]*outcome) bool {
	for _, set := range sets {
		for _, out := range set {
			if out.Failed > 0 || out.Attempted == 0 {
				return true
			}
		}
	}
	return false
}

// runAll is the README's form: every workload, every metric by name.
func (r *runner) runAll(stdout io.Writer) (ok bool, err error) {
	doc := resultsFile{Host: readHost(), Seed: r.o.seed, Smoke: r.o.smoke, EndToEnd: endToEnd}
	printHost(stdout, doc.Host)
	p := policy{warmups: 1, repeats: timedRepeats}
	if r.o.smoke {
		p = policy{repeats: 1}
	}
	path := filepath.Join(r.o.outDir, "results.json")
	if r.o.trace {
		path = filepath.Join(r.o.outDir, "layers.json")
		doc.PerLayer, doc.Layers = perLayer, map[string]layerSet{}
		for _, wl := range workloads {
			out, layers, err := r.runTraced(wl.Name, r.o.seed)
			if err != nil {
				return false, err
			}
			printLayers(stdout, out, layers)
			doc.Workloads, doc.Layers[wl.Name] = append(doc.Workloads, out), layers
		}
		ok = !failed(doc.Workloads)
	} else {
		if doc.Workloads, err = r.runSet(stdout, p); err != nil {
			return false, err
		}
		ok = !failed(doc.Workloads)
		if r.o.verifyRepeat {
			fmt.Fprintln(stdout, "\nsecond set")
			if doc.Second, err = r.runSet(stdout, p); err != nil {
				return false, err
			}
			doc.Spreads = compareSets(stdout, doc.Workloads, doc.Second)
			for _, row := range doc.Spreads {
				ok = ok && row.Agree
			}
			ok = ok && !failed(doc.Second)
		}
	}
	if err := writeJSON(path, doc); err != nil {
		return false, err
	}
	fmt.Fprintln(stdout, "\nwrote", path)
	return ok, nil
}

// setupFloorS is the absolute part of setup_s's bound: two set-up times
// within 20 ms of each other agree whatever their ratio. On four of the six
// workloads set-up is a few milliseconds and a scheduler hiccup is a large
// share of it.
const setupFloorS = 0.02

// compareSets prints both medians of every (workload, metric) pair and how
// far apart they are, as a share of the first.
func compareSets(w io.Writer, first, second []*outcome) map[string]spreadRow {
	rows := map[string]spreadRow{}
	fmt.Fprintf(w, "\n%-20s %-18s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "apart", "bound")
	for i, a := range first {
		b := second[i]
		for _, m := range endToEnd {
			x, y := a.Metrics[m.Name].Median, b.Metrics[m.Name].Median
			row := spreadRow{First: x, Second: y, Bound: m.Bound}
			if x != 0 {
				row.Share = math.Abs(y-x) / x
			}
			row.Agree = row.Share <= row.Bound || m.Name == mSetup && math.Abs(y-x) <= setupFloorS
			verdict := ""
			if !row.Agree {
				verdict = "  DISAGREE"
			}
			fmt.Fprintf(w, "%-20s %-18s %12.4f %12.4f %8.2f%% %6.0f%%%s\n", a.Workload, m.Name, x, y, 100*row.Share, 100*m.Bound, verdict)
			rows[a.Workload+"/"+m.Name] = row
		}
	}
	return rows
}

func printLayers(w io.Writer, out *outcome, layers layerSet) {
	fmt.Fprintf(w, "\n%s  traced (seed %d, digest %s)\n", out.Workload, out.Seed, out.Digest)
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-36s %16.4f %-6s -> %s\n", m.Name, layers[m.Name], m.Unit, m.Moves)
	}
	var extra []string
	for name := range layers {
		if !isPerLayer(name) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(w, "  %-36s %16.4f (detail)\n", name, layers[name])
	}
	fmt.Fprintf(w, "  %d failed of %d attempted\n", out.Failed, out.Attempted)
	for _, f := range out.Failures {
		fmt.Fprintln(w, "  FAILED", f)
	}
}

func isPerLayer(name string) bool {
	for _, m := range perLayer {
		if m.Name == name {
			return true
		}
	}
	return false
}

// run is the driver process's entry point; it returns the exit code.
func run(o options, stdout io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	r := &runner{ctx: ctx, o: o, exe: exe, stderr: os.Stderr}
	if o.workload != "" {
		if err := r.runOne(stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	ok, err := r.runAll(stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}
