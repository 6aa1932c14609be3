package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"ddoshield/internal/scenario"
	"ddoshield/internal/telemetry/trace"
)

// TestMain lets the tests below run the real command: re-executed with
// TRACETOOL_RUN_MAIN set, the test binary is tracetool.
func TestMain(m *testing.M) {
	if os.Getenv("TRACETOOL_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	code := m.Run()
	if dir != "" {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

// traced is a short defended run with every flow traced: a SYN flood the
// threshold IDS flags and the responder cuts, so the span file holds
// delivered flows and mitigated drops.
const traced = `{
  "name": "traced-defended",
  "seed": 42,
  "devices": 12,
  "durationSec": 20,
  "traceSampleRate": 1,
  "ids": true,
  "mitigate": true,
  "attacks": [{"atSec": 10, "type": "syn", "port": 80, "durationSec": 6, "pps": 400}]
}`

// dir holds the span file every test reads; spanFile fills it once.
var dir string

// spanFile runs the traced scenario once and returns the path of its
// spans.jsonl.
var spanFile = sync.OnceValues(func() (string, error) {
	def, err := scenario.Load(strings.NewReader(traced))
	if err != nil {
		return "", err
	}
	r, err := def.Apply(1)
	if err != nil {
		return "", err
	}
	r.Testbed.Start()
	if err := r.Testbed.Run(def.Duration()); err != nil {
		return "", err
	}
	if dir, err = os.MkdirTemp("", "tracetool-test"); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := trace.WriteSpans(f, r.Testbed.Tracer().Spans()); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
})

// spans returns the span file's path and contents.
func spans(t *testing.T) (string, []trace.Span) {
	t.Helper()
	path, err := spanFile()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ss, err := trace.ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) == 0 {
		t.Fatal("the traced run wrote no spans")
	}
	return path, ss
}

func tracetool(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TRACETOOL_RUN_MAIN=1")
	var ob, eb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &ob, &eb
	err = cmd.Run()
	return ob.String(), eb.String(), err
}

func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, stderr, err := tracetool(args...)
	if err != nil {
		t.Fatalf("tracetool %v: %v\n%s", args, err, stderr)
	}
	return out
}

// section returns the rows printed under the first line containing title:
// the lines after it and its header lines, up to the next blank line.
func section(t *testing.T, out, title string, header int) []string {
	t.Helper()
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if !strings.Contains(l, title) {
			continue
		}
		var rows []string
		for _, r := range lines[i+1+header:] {
			if r == "" {
				break
			}
			rows = append(rows, r)
		}
		return rows
	}
	t.Fatalf("no %q section in\n%s", title, out)
	return nil
}

func TestReportListsEveryHop(t *testing.T) {
	path, ss := spans(t)
	rows := section(t, mustRun(t, "-in", path), "Per-hop latency breakdown:", 1)
	listed := map[string]bool{}
	for _, r := range rows {
		listed[strings.Fields(r)[0]] = true
	}
	for _, s := range ss {
		if !listed[s.Name] {
			t.Fatalf("hop %q missing from the breakdown:\n%s", s.Name, strings.Join(rows, "\n"))
		}
	}
	if len(rows) != len(listed) {
		t.Fatalf("the breakdown repeats a hop:\n%s", strings.Join(rows, "\n"))
	}
}

func TestTopPrintsN(t *testing.T) {
	path, _ := spans(t)
	if rows := section(t, mustRun(t, "-in", path, "-top", "3"), "Top 3 slowest flows:", 1); len(rows) != 3 {
		t.Fatalf("-top 3 printed %d rows:\n%s", len(rows), strings.Join(rows, "\n"))
	}
}

func TestMitigatedPrintsOnlyMitigatedDrops(t *testing.T) {
	path, _ := spans(t)
	out := mustRun(t, "-in", path, "-mitigated")
	rows := section(t, out, "were cut by mitigation:", 1)
	if len(rows) == 0 {
		t.Fatalf("-mitigated listed no flows:\n%s", out)
	}
	for _, r := range rows {
		// trace, kind, latency, spans, drop, flow...
		if f := strings.Fields(r); len(f) < 5 || f[4] != trace.DropMitigated.String() {
			t.Fatalf("-mitigated row %q does not end in a mitigated drop", r)
		}
	}
}

// TestTracePathStartsAtOrigin follows the first trace in the file whose
// origin span the tracer's ring still holds.
func TestTracePathStartsAtOrigin(t *testing.T) {
	path, ss := spans(t)
	i := slices.IndexFunc(ss, trace.Span.Root)
	if i < 0 {
		t.Fatal("no origin span in the file")
	}
	id := fmt.Sprint(uint64(ss[i].Trace))
	rows := section(t, mustRun(t, "-in", path, "-trace", id), "Critical path of trace "+id+":", 0)
	if len(rows) == 0 || strings.Fields(rows[0])[0] != "+0s" {
		t.Fatalf("the path of trace %s does not start at +0s:\n%s", id, strings.Join(rows, "\n"))
	}
}

func TestChromeExportIsJSON(t *testing.T) {
	path, _ := spans(t)
	out := filepath.Join(t.TempDir(), "chrome.json")
	mustRun(t, "-in", path, "-chrome", out)
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
}

// TestErrorsExitOne pins the failure form: exit status 1 and one
// "tracetool:" line on stderr.
func TestErrorsExitOne(t *testing.T) {
	path, _ := spans(t)
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-in", path, "-trace", "999999999"},
		{"-in", empty},
	} {
		_, stderr, err := tracetool(args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("tracetool %v: %v, want exit status 1\n%s", args, err, stderr)
		}
		lines := strings.Split(strings.TrimRight(stderr, "\n"), "\n")
		if len(lines) != 1 || !strings.HasPrefix(lines[0], "tracetool: ") {
			t.Fatalf("tracetool %v: stderr %q, want one tracetool: line", args, stderr)
		}
	}
}
