// Command detect replays a pcap capture through the Real-Time IDS Unit
// (Fig. 2) with one or more previously trained models, printing the
// per-window verdicts — the real-time detection phase of §IV-D driven from
// recorded traffic instead of a live testbed. Several models share one
// capture front end: the capture is read and decoded once, and each model
// prints what it would have printed alone, in the order given.
//
// Usage:
//
//	detect -model models/kmeans.model -pcap run.pcap -window 1s
//	detect -model models/rf.model,models/kmeans.model,models/cnn.model -pcap run.pcap
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ddoshield/internal/features"
	"ddoshield/internal/ids"
	"ddoshield/internal/ml/modelio"
	"ddoshield/internal/packet"
	"ddoshield/internal/pcap"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "detect:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("detect", flag.ContinueOnError)
	var (
		modelPath = fs.String("model", "", "trained model file, or a comma-separated list of them (required)")
		pcapPath  = fs.String("pcap", "", "capture to replay (required)")
		window    = fs.Duration("window", time.Second, "aggregation window")
		verbose   = fs.Bool("v", false, "print every window, not only alerts")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" || *pcapPath == "" {
		return fmt.Errorf("-model and -pcap are required")
	}
	if *window <= 0 {
		return fmt.Errorf("-window must be positive (got %v)", *window)
	}

	var units []*ids.Unit
	for _, path := range strings.Split(*modelPath, ",") {
		bundle, err := modelio.LoadBundleFile(path)
		if err != nil {
			return err
		}
		// A wider model would index past the vector, a narrower one read
		// the wrong columns.
		if w := modelio.Width(bundle.Model); w != features.NumFeatures() {
			return fmt.Errorf("%s: the model reads %d features, the IDS extracts %d", path, w, features.NumFeatures())
		}
		u := ids.New(ids.Config{Model: bundle.Model, Scaler: bundle.Scaler, Window: *window, Name: bundle.Model.Name()})
		if len(units) > 0 {
			// Fresh units of one window size: Subscribe cannot refuse.
			units[0].Front().Subscribe(u)
		}
		units = append(units, u)
	}
	f, err := os.Open(*pcapPath)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		return err
	}

	frames := 0
	// Pooled decode: Feed copies the features it keeps out of the packet.
	p := packet.Acquire()
	defer p.Release()
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		frames++
		// Any unit feeds the front they share.
		if packet.DecodeInto(p, rec.Time, rec.Data) == nil {
			units[0].Feed(p)
		}
	}
	units[0].Flush()

	for _, u := range units {
		results := u.Results()
		alerts := 0
		for _, w := range results {
			if w.Alert {
				alerts++
			}
			if w.Alert || *verbose {
				printWindow(stdout, w)
			}
		}
		// A model's compute includes the shared front's, as it would alone.
		fmt.Fprintf(stdout, "model %s over %d frames: %d windows, %d alerts, %.1f ms compute\n",
			u.Name(), frames, len(results), alerts,
			float64(u.CPUTime().Microseconds())/1000)
	}
	return nil
}

// printWindow renders one window's verdict line.
func printWindow(w io.Writer, r ids.WindowResult) {
	verdict := "benign"
	if r.Alert {
		verdict = "ATTACK"
	}
	fmt.Fprintf(w, "%8s  %-6s  %6d pkts  %6d flagged\n", r.Start, verdict, r.Packets, r.PredMalicious)
}
