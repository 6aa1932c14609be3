package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the tests below run the real command: re-executed with
// DDOSHIELD_RUN_MAIN set, the test binary is ddoshield.
func TestMain(m *testing.M) {
	if os.Getenv("DDOSHIELD_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func ddoshield(t *testing.T, args ...string) (stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DDOSHIELD_RUN_MAIN=1")
	var eb bytes.Buffer
	cmd.Stderr = &eb
	err = cmd.Run()
	return eb.String(), err
}

// scenarioFile writes a scenario definition into a temporary file and
// returns its path.
func scenarioFile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runArtifacts runs ddoshield with args plus -artifacts into a fresh
// directory, and returns that directory.
func runArtifacts(t *testing.T, args ...string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "run")
	if stderr, err := ddoshield(t, append(args, "-artifacts", dir)...); err != nil {
		t.Fatalf("ddoshield %v: %v\n%s", args, err, stderr)
	}
	return dir
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// hash16 is the first 16 hex digits of the SHA-256 of s.
func hash16(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])[:16]
}

// TestScenariosReproduceFlagRuns pins what the scenario files (and the
// built-in default) simulate to the runs the command's old flag form made:
// the default run, the CI chaos run (-duration 45s -devices 12 -seed 42
// -churn -chaos 0.5 -warmup 10s -attack 5s -gap 5s) serial and on four
// domains, the same with -ids -mitigate, and example.json; and
// defended12.json (groups, lossy links, chaos, full tracing, ids and
// mitigation) serial and on three domains. The hashes are
// of the Summary and of the Prometheus snapshot without the
// ids_window_cpu_us histogram, which measures host CPU time. They were
// re-recorded when switch partitions and the crash-loop and partition fault
// counters were deleted: the texts lost " partition-drops=0" and the
// always-zero series, and nothing else.
func TestScenariosReproduceFlagRuns(t *testing.T) {
	defended := strings.Replace(readFile(t, filepath.Join("..", "..", "scenarios", "chaos12.json")),
		`"chaos": 0.5,`, `"chaos": 0.5, "ids": true, "mitigate": true,`, 1)
	for _, c := range []struct {
		name            string
		args            []string
		summary, metric string
	}{
		{"default", nil, "cf0924696b32c1d9", "f3728bcf5d00143b"},
		{"chaos12", []string{"-config", "../../scenarios/chaos12.json"}, "9b01a51b57a0e059", "5f4db601612a216c"},
		{"chaos12 on 4 domains", []string{"-config", "../../scenarios/chaos12.json", "-domains", "4"}, "9b01a51b57a0e059", "5f4db601612a216c"},
		{"chaos12 defended", []string{"-config", scenarioFile(t, defended)}, "7ffadc3ebf988ee7", "0f735ad6838c264a"},
		{"example", []string{"-config", "../../scenarios/example.json"}, "ab2d40ad54e8304c", "3491ac8c4d77218b"},
		{"defended12", []string{"-config", "../../scenarios/defended12.json"}, "5ece3108da297f26", "b8113c5ef9ba0c01"},
		{"defended12 on 3 domains", []string{"-config", "../../scenarios/defended12.json", "-domains", "3"}, "5ece3108da297f26", "b8113c5ef9ba0c01"},
	} {
		dir := runArtifacts(t, c.args...)
		var metrics strings.Builder
		for _, line := range strings.SplitAfter(readFile(t, filepath.Join(dir, "metrics.prom")), "\n") {
			if !strings.Contains(line, "ids_window_cpu_us") {
				metrics.WriteString(line)
			}
		}
		if got := hash16(readFile(t, filepath.Join(dir, "summary.txt"))); got != c.summary {
			t.Errorf("%s: Summary hash %s, want %s", c.name, got, c.summary)
		}
		if got := hash16(metrics.String()); got != c.metric {
			t.Errorf("%s: metrics hash %s, want %s", c.name, got, c.metric)
		}
	}
}

// TestConfigHonoursDomains runs a scenario file on three domains: the
// profile's engine section must say so (a -config run once ignored
// -domains and ran serially).
func TestConfigHonoursDomains(t *testing.T) {
	dir := runArtifacts(t, "-config", "../../scenarios/grouped12.json", "-domains", "3")
	var p struct {
		Engine *struct {
			Domains int `json:"domains"`
		} `json:"engine"`
	}
	if err := json.Unmarshal([]byte(readFile(t, filepath.Join(dir, "profile.json"))), &p); err != nil {
		t.Fatal(err)
	}
	if p.Engine == nil || p.Engine.Domains != 3 {
		t.Fatalf("profile engine section %+v, want 3 domains", p.Engine)
	}
}

// TestScenarioTracingWritesSpans runs a file that sets traceSampleRate: the
// run must trace and write its spans (a -config run once dropped the
// sample rate and attached no tracer).
func TestScenarioTracingWritesSpans(t *testing.T) {
	path := scenarioFile(t, `{"name": "traced", "seed": 3, "devices": 4, "durationSec": 5, "traceSampleRate": 1}`)
	dir := runArtifacts(t, "-config", path)
	if spans := readFile(t, filepath.Join(dir, "spans.jsonl")); spans == "" {
		t.Fatal("spans.jsonl is empty")
	}
}

// TestGroupedPartitionedRunMatchesSerial drives the grouped fleet form —
// a scenario with groups, run with -domains — and byte-compares its
// summary with the serial run of the same file.
func TestGroupedPartitionedRunMatchesSerial(t *testing.T) {
	summary := func(domains string) string {
		dir := runArtifacts(t, "-config", "../../scenarios/grouped12.json", "-domains", domains)
		return readFile(t, filepath.Join(dir, "summary.txt"))
	}
	serial, partitioned := summary("1"), summary("3")
	if serial == "" || serial != partitioned {
		t.Fatalf("summaries differ:\n--- -domains 1 ---\n%s--- -domains 3 ---\n%s", serial, partitioned)
	}
}

// TestBadFleetShapeIsAnError pins what a fleet shape too large to build
// does: the command exits 1 with one line naming the objection, instead of
// dying out of memory on the engine's K×K tables or the group index. A
// domain count is the testbed's to refuse; a group count the scenario's.
func TestBadFleetShapeIsAnError(t *testing.T) {
	for _, c := range []struct {
		args   []string
		prefix string
	}{
		{[]string{"-config", scenarioFile(t, `{"durationSec": 120, "devices": 4}`), "-domains", "100000"}, "ddoshield: testbed: "},
		{[]string{"-config", scenarioFile(t, `{"durationSec": 120, "devices": 10, "groups": 1000000000}`)}, "ddoshield: scenario"},
	} {
		stderr, err := ddoshield(t, c.args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("ddoshield %v: %v, want exit status 1\n%s", c.args, err, stderr)
		}
		lines := strings.Split(strings.TrimRight(stderr, "\n"), "\n")
		if len(lines) != 1 || !strings.HasPrefix(lines[0], c.prefix) {
			t.Fatalf("ddoshield %v: stderr %q, want one %q line", c.args, stderr, c.prefix+"...")
		}
	}
}

// TestFlags pins the command's surface: the scenario file says what a run
// simulates, and the flags only how to execute it and where to write. (The
// test binary adds its own test.* flags, which ddoshield does not have.)
func TestFlags(t *testing.T) {
	stderr, _ := ddoshield(t, "-h")
	var flags []string
	for _, line := range strings.Split(stderr, "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok && !strings.HasPrefix(name, "test.") {
			flags = append(flags, strings.Fields(name)[0])
		}
	}
	want := []string{"artifacts", "config", "domains", "listen", "out", "pcap", "pprof"}
	if strings.Join(flags, " ") != strings.Join(want, " ") {
		t.Fatalf("flags %v, want %v", flags, want)
	}
}
