// Command detect replays a pcap capture through the Real-Time IDS Unit
// (Fig. 2) with a previously trained model, printing the per-window
// verdicts — the real-time detection phase of §IV-D driven from recorded
// traffic instead of a live testbed.
//
// Usage:
//
//	detect -model models/kmeans.model -pcap run.pcap -window 1s
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

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
		modelPath = fs.String("model", "", "trained model file (required)")
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

	bundle, err := modelio.LoadBundleFile(*modelPath)
	if err != nil {
		return err
	}
	model := bundle.Model
	f, err := os.Open(*pcapPath)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		return err
	}

	unit := ids.New(ids.Config{Model: model, Scaler: bundle.Scaler, Window: *window})
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
		if packet.DecodeInto(p, rec.Time, rec.Data) == nil {
			unit.Feed(p)
		}
	}
	unit.Flush()

	results := unit.Results()
	alerts := 0
	for _, w := range results {
		if w.Alert {
			alerts++
		}
		if w.Alert || *verbose {
			printWindow(stdout, w)
		}
	}
	fmt.Fprintf(stdout, "model %s over %d frames: %d windows, %d alerts, %.1f ms compute\n",
		model.Name(), frames, len(results), alerts,
		float64(unit.CPUTime().Microseconds())/1000)
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
