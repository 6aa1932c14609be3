package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"ddoshield/internal/dataset"
	"ddoshield/internal/features"
	"ddoshield/internal/ids"
	"ddoshield/internal/ml/forest"
	"ddoshield/internal/ml/kmeans"
	"ddoshield/internal/ml/modelio"
	"ddoshield/internal/packet"
	"ddoshield/internal/pcap"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry/trace"
)

// TestMain lets TestWideModelIsAnError run the real command: re-executed
// with DETECT_RUN_MAIN set, the test binary is detect.
func TestMain(m *testing.M) {
	if os.Getenv("DETECT_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// capture is a short recording: a quiet second, a second of spoofed SYNs,
// a quiet second.
func capture() *pcap.Buffer {
	buf := pcap.NewBuffer(0)
	tap := buf.Tap()
	server := packet.AddrFrom4(10, 0, 1, 1)
	for w := 0; w < 3; w++ {
		for i := 0; i < 120; i++ {
			at := sim.Time(w)*sim.Second + sim.Time(i)*7*sim.Millisecond
			ip := packet.IPv4{TTL: 64, Src: packet.AddrFrom4(10, 0, 0, byte(5+i%3)), Dst: server}
			tcp := packet.TCP{SrcPort: uint16(40000 + i%3), DstPort: 80, Seq: uint32(1000 + i), Flags: packet.FlagACK | packet.FlagPSH, Window: 512}
			payload := []byte("data")
			if w == 1 && i%6 != 0 {
				ip.Src = packet.AddrFrom4(10, 0, 200, byte(i))
				tcp = packet.TCP{SrcPort: uint16(1024 + i*37), DstPort: 80, Seq: uint32(i) * 2654435761, Flags: packet.FlagSYN, Window: 512}
				payload = nil
			}
			tap(at, packet.BuildTCP(packet.MACFromUint64(1), packet.MACFromUint64(2), ip, tcp, payload), trace.Context{})
		}
	}
	return buf
}

// savedCapture writes capture() to a pcap file in dir, and next to it a
// tiny K-Means bundle and a tiny random forest trained on the capture's own
// vectors. It returns the capture's records as read back from the file, the
// paths and the K-Means bundle.
func savedCapture(t *testing.T, dir string) (recs []pcap.Record, pcapPath, kmPath, rfPath string, km modelio.Bundle) {
	t.Helper()
	buf := capture()
	pcapPath, kmPath, rfPath = filepath.Join(dir, "run.pcap"), filepath.Join(dir, "kmeans.model"), filepath.Join(dir, "rf.model")
	f, err := os.Create(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buf.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// A tiny K-Means bundle trained on the capture's own vectors.
	ds := dataset.New(features.Names())
	e := features.NewExtractor(time.Second, func(w *features.Window) {
		for i, x := range w.Vectors() {
			label := dataset.Benign
			if w.Packets[i].Src[2] == 200 {
				label = dataset.Malicious
			}
			ds.Add(x, label)
		}
	})
	f, err = os.Open(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if recs, err = r.ReadAll(); err != nil {
		t.Fatal(err)
	}
	p := packet.Acquire()
	defer p.Release()
	for _, rec := range recs {
		if err := packet.DecodeInto(p, rec.Time, rec.Data); err != nil {
			t.Fatal(err)
		}
		e.AddPacket(p)
	}
	e.Flush()
	raw, ys := ds.XY()
	rf, err := forest.Train(forest.Config{Trees: 4, MaxDepth: 4, Seed: 1}, raw, ys)
	if err != nil {
		t.Fatal(err)
	}
	if err := modelio.SaveBundleFile(rfPath, modelio.Bundle{Model: rf}); err != nil {
		t.Fatal(err)
	}
	scaler := dataset.FitStandard(ds)
	scaler.Apply(ds)
	xs, _ := ds.XY()
	model, err := kmeans.Train(kmeans.Config{InitClusters: 4, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	km = modelio.Bundle{Model: model, Scaler: scaler}
	if err := modelio.SaveBundleFile(kmPath, km); err != nil {
		t.Fatal(err)
	}
	return recs, pcapPath, kmPath, rfPath, km
}

// TestReplayMatchesLiveUnit drives the command over a capture and a saved
// model, and a live unit over the same frames through its tap: the offline
// half of the detection path prints the windows the online half scores.
func TestReplayMatchesLiveUnit(t *testing.T) {
	recs, pcapPath, modelPath, _, km := savedCapture(t, t.TempDir())
	var out bytes.Buffer
	if err := run([]string{"-model", modelPath, "-pcap", pcapPath, "-v"}, &out); err != nil {
		t.Fatal(err)
	}

	live := ids.New(ids.Config{Model: km.Model, Scaler: km.Scaler, Window: time.Second})
	tap := live.Tap()
	for _, rec := range recs {
		tap(rec.Time, rec.Data, trace.Context{})
	}
	live.Flush()
	var want bytes.Buffer
	alerts := 0
	for _, r := range live.Results() {
		printWindow(&want, r)
		if r.Alert {
			alerts++
		}
	}
	if alerts != 1 || len(live.Results()) != 3 {
		t.Fatalf("the live unit saw %d windows and %d alerts; the capture has 3 and 1:\n%s", len(live.Results()), alerts, want.String())
	}
	windows, summary, _ := strings.Cut(out.String(), "model ")
	if windows != want.String() {
		t.Fatalf("replayed windows:\n%s\nlive windows:\n%s", windows, want.String())
	}
	if !strings.HasPrefix(summary, "kmeans over 360 frames: 3 windows, 1 alerts, ") {
		t.Fatalf("summary line: %q", summary)
	}

	// Without -v only the alert is printed.
	out.Reset()
	if err := run([]string{"-model", modelPath, "-pcap", pcapPath}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "\n"); got != 2 || !strings.Contains(out.String(), "ATTACK") {
		t.Fatalf("quiet output:\n%s", out.String())
	}
	if err := run([]string{"-pcap", pcapPath}, &out); err == nil {
		t.Fatal("a run without -model succeeded")
	}
}

// TestNonPositiveWindowIsAnError: a window of zero or less is refused, not
// run at the unit's default window under the label of the one given.
func TestNonPositiveWindowIsAnError(t *testing.T) {
	_, pcapPath, modelPath, _, _ := savedCapture(t, t.TempDir())
	for _, w := range []string{"0", "-1s"} {
		var out bytes.Buffer
		err := run([]string{"-model", modelPath, "-pcap", pcapPath, "-window", w}, &out)
		if err == nil || !strings.Contains(err.Error(), "-window") {
			t.Errorf("-window %s: err %v, want one naming -window", w, err)
		}
		if out.Len() != 0 {
			t.Errorf("-window %s printed results:\n%s", w, out.String())
		}
	}
}

// compute is the one wall-clock figure of the output.
var compute = regexp.MustCompile(`[0-9.]+ ms compute`)

// TestModelListMatchesSingleRuns: with a comma-separated -model list the
// capture is replayed once, through one front, and each model prints
// exactly the lines it prints alone, in list order — its compute figure
// aside, which is a wall clock.
func TestModelListMatchesSingleRuns(t *testing.T) {
	_, pcapPath, kmPath, rfPath, _ := savedCapture(t, t.TempDir())
	output := func(models string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run([]string{"-model", models, "-pcap", pcapPath, "-v"}, &out); err != nil {
			t.Fatal(err)
		}
		return compute.ReplaceAllString(out.String(), "# ms compute")
	}
	km, rf := output(kmPath), output(rfPath)
	if !strings.Contains(km, "model kmeans over 360 frames: 3 windows, 1 alerts") || !strings.Contains(rf, "model rf over 360 frames: 3 windows") {
		t.Fatalf("single runs:\n%s%s", km, rf)
	}
	for _, list := range [][]string{{kmPath, rfPath}, {rfPath, kmPath, rfPath}} {
		want := ""
		for _, path := range list {
			want += map[string]string{kmPath: km, rfPath: rf}[path]
		}
		if got := output(strings.Join(list, ",")); got != want {
			t.Errorf("-model %s:\n%s\nwant the single runs in order:\n%s", strings.Join(list, ","), got, want)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-model", kmPath + ",missing.model", "-pcap", pcapPath}, &out); err == nil {
		t.Fatal("a list with a missing model file succeeded")
	}
}

// TestWideModelIsAnError: a forest whose one split reads the column past the
// feature vector loads — its file declares that width — but detect refuses
// it before replaying a frame: exit status 1 and one "detect:" line, not a
// panic out of the first window.
func TestWideModelIsAnError(t *testing.T) {
	dir := t.TempDir()
	_, pcapPath, _, _, _ := savedCapture(t, dir)
	n := features.NumFeatures()
	wide := &forest.Forest{
		Cfg:      forest.Config{Classes: 2},
		Features: n + 1,
		TreeList: []*forest.Tree{{Nodes: []forest.Node{
			{Feature: int32(n), Left: 1, Right: 2},
			{Feature: -1, Class: 0},
			{Feature: -1, Class: 1},
		}}},
	}
	path := filepath.Join(dir, "wide.model")
	if err := modelio.SaveBundleFile(path, modelio.Bundle{Model: wide}); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-model", path, "-pcap", pcapPath)
	cmd.Env = append(os.Environ(), "DETECT_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("%v, want exit status 1\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "detect: ") || !strings.Contains(lines[0], fmt.Sprintf("reads %d features", n+1)) || stdout.Len() != 0 {
		t.Fatalf("stdout %q, stderr %q: want one detect: line naming the width and nothing printed", stdout.String(), stderr.String())
	}
}
