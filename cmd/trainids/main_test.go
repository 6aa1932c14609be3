package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ddoshield/internal/features"
)

// TestMain lets the tests below run the real command: re-executed with
// TRAINIDS_RUN_MAIN set, the test binary is trainids.
func TestMain(m *testing.M) {
	if os.Getenv("TRAINIDS_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestMalformedInputIsAnError: a corpus whose columns are not the IDS's
// features, a label that is neither class, a row of NaN features and a
// subsample cap below one each end the command with exit status 1 and one "trainids:" line, not a
// panic.
func TestMalformedInputIsAnError(t *testing.T) {
	dir := t.TempDir()
	csv := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	header := strings.Join(features.Names(), ",") + ",label\n"
	row := strings.TrimSuffix(strings.Repeat("1,", features.NumFeatures()), ",")
	nanRow := strings.TrimSuffix(strings.Repeat("NaN,", features.NumFeatures()), ",")
	good := csv("good.csv", header+row+",0\n"+row+",1\n")
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"foreign columns", []string{"-data", csv("columns.csv", "a,label\n1,0\n2,1\n")}, "columns"},
		{"label 5", []string{"-data", csv("label.csv", header+row+",0\n"+row+",5\n")}, "line 3: label 5"},
		{"NaN features", []string{"-data", csv("nan.csv", header+nanRow+",0\n"+strings.Repeat(row+",1\n", 4))}, "line 2: feature"},
		{"-maxsamples -1", []string{"-data", good, "-maxsamples", "-1"}, "-maxsamples"},
	} {
		cmd := exec.Command(os.Args[0], append(c.args, "-outdir", dir)...)
		cmd.Env = append(os.Environ(), "TRAINIDS_RUN_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: %v, want exit status 1\n%s", c.name, err, stderr.String())
			continue
		}
		lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
		if len(lines) != 1 || !strings.HasPrefix(lines[0], "trainids: ") || !strings.Contains(lines[0], c.want) {
			t.Errorf("%s: stderr %q, want one trainids: line naming %q", c.name, stderr.String(), c.want)
		}
	}
}
