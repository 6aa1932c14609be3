package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestMain lets the test binary serve as its own measurement child: the
// harness re-executes os.Executable() with childEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecLimits pins the schema limits the PR driver enforces.
func TestSpecLimits(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps /BENCHMARK.json and spec.go in step.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end, %d per-layer; spec.go %d, %d, %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go %+v", i, doc.Workloads[i], w)
		}
	}
	for i, m := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
	}
	for i, m := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, spec.go %+v", i, got, m)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}

func TestTraceFlagSpellings(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want bool
	}{
		{[]string{"-trace"}, true},
		{[]string{"--workload", wlFleetSerial, "--seed", "3", "--seconds", "4", "--trace", "1"}, true},
		{[]string{"--workload", wlFleetSerial, "--trace", "0", "--seed", "3"}, false},
		{nil, false},
	} {
		o, err := parseOptions(tc.args)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if o.trace != tc.want {
			t.Errorf("%v: trace = %v, want %v", tc.args, o.trace, tc.want)
		}
	}
	if o, _ := parseOptions([]string{"--workload", wlFleetSerial, "--trace", "0", "--seed", "3"}); o.seed != 3 {
		t.Errorf("flags after --trace 0 were lost: seed = %d", o.seed)
	}
}

// TestSmoke runs every workload at smoke size through the real driver and
// child processes and checks the written document: every workload emits
// every end-to-end metric, and nothing the harness attempted failed. It is
// what keeps the harness compiling and running against the internal APIs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six small campaigns")
	}
	out := t.TempDir()
	o, err := parseOptions([]string{"-smoke", "-seed", "5", "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if code := run(o, &stdout); code != 0 {
		t.Fatalf("smoke run exited %d\n%s", code, stdout.String())
	}
	data, err := os.ReadFile(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc resultsFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Host.NumCPU < 1 || doc.Host.GoVersion == "" {
		t.Errorf("host block incomplete: %+v", doc.Host)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in results, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Workload != workloads[i].Name {
			t.Errorf("workload %d is %q, want %q", i, w.Workload, workloads[i].Name)
		}
		if w.Failed != 0 || w.Attempted == 0 || w.Digest == "" {
			t.Errorf("%s: %d failed of %d attempted, digest %q: %v", w.Workload, w.Failed, w.Attempted, w.Digest, w.Failures)
		}
		for _, m := range endToEnd {
			s, ok := w.Metrics[m.Name]
			if !ok || s.N < 1 || s.Median <= 0 {
				t.Errorf("%s: metric %s missing or not positive: %+v", w.Workload, m.Name, s)
			}
		}
	}
}

// TestSmokeDriverLine checks the PR driver's form end to end on the
// cheapest workload: exactly the four keys, every end-to-end metric.
func TestSmokeDriverLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small campaign")
	}
	o, err := parseOptions([]string{"--workload", wlFleetSerial, "--seed", "9", "--seconds", "1", "--trace", "0", "-smoke", "-out", t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if code := run(o, &stdout); code != 0 {
		t.Fatalf("exit %d\n%s", code, stdout.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var line map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 {
		t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", line)
	}
	var res driverLine
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result line %+v", res)
	}
	for _, m := range endToEnd {
		if v := res.Metrics[m.Name]; v.Unit != m.Unit || v.Value <= 0 {
			t.Errorf("metric %s = %+v", m.Name, v)
		}
	}
}
