package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test below run the real command: re-executed with
// BENCHTABLES_RUN_MAIN set, the test binary is benchtables.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHTABLES_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestMitigationTableQuick is CI's mitigation sweep smoke run as a test:
// -table mitigation at the quick scale cross-checks one grid point across
// Domains {1, 2} and prints its row.
func TestMitigationTableQuick(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-table", "mitigation", "-scale", "quick")
	cmd.Env = append(os.Environ(), "BENCHTABLES_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("benchtables -table mitigation: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if !strings.HasPrefix(lines[0], "MITIGATION SWEEP") {
		t.Fatalf("no sweep header:\n%s", out)
	}
	// Header line, the table's own header and rule, one grid point.
	if len(lines) < 4 {
		t.Fatalf("no grid-point row:\n%s", out)
	}
}
