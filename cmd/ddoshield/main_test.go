package main

import (
	"bytes"
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

// TestGroupedPartitionedRunMatchesSerial drives the fleet-scale form the
// README shows — -groups with -domains — and byte-compares its summary
// with the serial run of the same seed.
func TestGroupedPartitionedRunMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	run := func(name, domains string) string {
		out := filepath.Join(dir, name)
		if stderr, err := ddoshield(t, "-duration", "20s", "-devices", "12", "-groups", "4", "-seed", "42",
			"-warmup", "8s", "-attack", "3s", "-gap", "2s", "-domains", domains, "-summary-out", out); err != nil {
			t.Fatalf("ddoshield -domains %s: %v\n%s", domains, err, stderr)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	serial, partitioned := run("serial.txt", "1"), run("pdes.txt", "3")
	if serial == "" || serial != partitioned {
		t.Fatalf("summaries differ:\n--- -domains 1 ---\n%s--- -domains 3 ---\n%s", serial, partitioned)
	}
}

// TestBadFleetShapeIsAnError pins what a fleet shape too large to build
// does: the command exits 1 with one line naming the testbed's objection,
// instead of dying out of memory on the engine's K×K tables or the group
// index.
func TestBadFleetShapeIsAnError(t *testing.T) {
	for _, args := range [][]string{
		{"-domains", "100000", "-devices", "4"},
		{"-groups", "1000000000"},
	} {
		stderr, err := ddoshield(t, args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("ddoshield %v: %v, want exit status 1\n%s", args, err, stderr)
		}
		lines := strings.Split(strings.TrimRight(stderr, "\n"), "\n")
		if len(lines) != 1 || !strings.HasPrefix(lines[0], "ddoshield: testbed: ") {
			t.Fatalf("ddoshield %v: stderr %q, want one \"ddoshield: testbed: ...\" line", args, stderr)
		}
	}
}
