// Command ddoshield runs one DDoShield-IoT testbed scenario: benign traffic
// from the device fleet against the TServer, a Mirai campaign (scan, infect,
// C2, flood waves), and capture at the TServer uplink. What a run simulates
// is its scenario file (-config; scenario.Default without one). The flags
// say only how to execute it and where to write: the labeled dataset as CSV
// and the raw capture as pcap (the data-generation phase of §IV-D), and the
// run's artifacts.
//
// Usage:
//
//	ddoshield -out dataset.csv -pcap run.pcap
//	ddoshield -config scenarios/fleet100k.json -domains 9 -artifacts run/
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ddoshield/internal/pcap"
	"ddoshield/internal/scenario"
	"ddoshield/internal/sim"
	"ddoshield/internal/telemetry"
	"ddoshield/internal/telemetry/prof"
	"ddoshield/internal/telemetry/trace"
	"ddoshield/internal/testbed"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ddoshield:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		config    = flag.String("config", "", "JSON scenario file: what the run simulates (default: ten devices for 2 min on seed 42 with repeating SYN/ACK/UDP waves)")
		domains   = flag.Int("domains", 1, "PDES domain count (>1 partitions the run across scheduler goroutines; results are byte-identical to -domains 1)")
		outCSV    = flag.String("out", "", "collect the labeled dataset and write it here as CSV")
		outPcap   = flag.String("pcap", "", "write the raw capture here (pcap format)")
		artifacts = flag.String("artifacts", "", "write summary.txt, metrics.prom, metrics.json, flight.json and profile.json (with the bottleneck report on stderr) into this directory, plus spans.jsonl when tracing and mitigation.json when mitigating")
		listen    = flag.String("listen", "", "serve live /metrics, /metrics.json, /trace and /profile.json on this address (e.g. :9090)")
		pprofFlag = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the -listen address (requires -listen)")
	)
	flag.Parse()
	if *pprofFlag && *listen == "" {
		return fmt.Errorf("-pprof requires -listen")
	}

	def := scenario.Default()
	if *config != "" {
		var err error
		if def, err = scenario.LoadFile(*config); err != nil {
			return err
		}
	}
	r, err := def.Apply(*domains)
	if err != nil {
		return err
	}
	tb, unit, fw := r.Testbed, r.IDS, r.Firewall

	var dc *testbed.DatasetCollector
	if *outCSV != "" {
		dc = tb.NewDatasetCollector(def.Window())
		tb.AddTap(dc.Tap())
	}
	var pcapFile *os.File
	if *outPcap != "" {
		if pcapFile, err = os.Create(*outPcap); err != nil {
			return err
		}
		defer pcapFile.Close()
		pw, err := pcap.NewWriter(pcapFile, 0)
		if err != nil {
			return err
		}
		tb.AddTap(pw.Tap())
	}

	ts := tb.NewThroughputSampler()

	// Live observability endpoint: the run refreshes rendered snapshots once
	// per simulated second, between events in every domain (Observe); HTTP
	// handlers only ever serve those cached bytes, so no handler touches
	// simulation state.
	if *listen != "" {
		live := telemetry.NewLiveServerOptions(telemetry.LiveServerOptions{EnablePprof: *pprofFlag})
		tb.Observe(time.Second, func(now sim.Time) {
			live.Update(now, tb.Registry(), tb.Recorder())
			if fw != nil {
				if data, err := tb.MitigationScoreboard().JSON(); err == nil {
					live.UpdateMitigation(data)
				}
			}
		})
		// The profile walks the whole topology, so refresh it at a coarser
		// cadence than the per-second metrics tick.
		tb.Observe(5*time.Second, func(sim.Time) {
			if data, err := tb.Profile().JSON(); err == nil {
				live.UpdateProfile(data)
			}
		})
		srv := &http.Server{Addr: *listen, Handler: live.Handler()}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "ddoshield: telemetry listener:", err)
			}
		}()
		defer srv.Close()
		endpoints := "/metrics, /metrics.json, /trace, /profile.json"
		if *pprofFlag {
			endpoints += ", /debug/pprof/"
		}
		if fw != nil {
			endpoints += ", /mitigation.json"
		}
		fmt.Printf("telemetry: serving %s on %s\n", endpoints, *listen)
	}

	tb.Start()
	fmt.Printf("running scenario %q: %d devices for %v (seed %d)...\n",
		def.Name, len(tb.Devices()), def.Duration(), def.Seed)
	startWall := time.Now()
	if err := tb.Run(def.Duration()); err != nil {
		return err
	}
	fmt.Printf("simulated %v in %v wall time\n", def.Duration(), time.Since(startWall).Round(time.Millisecond))
	// Everything after Run — dataset rendering, artifact writing — is the
	// teardown phase of the campaign profile.
	tb.Profiler().StartPhase(prof.PhaseTeardown)

	fmt.Printf("devices infected: %d/%d, C2 bots connected: %d\n",
		tb.InfectedCount(), len(tb.Devices()), tb.C2().Bots())
	probes, connects, cracked, infections := tb.Attacker().Stats()
	fmt.Printf("attacker: %d probes, %d connects, %d cracked, %d infections\n",
		probes, connects, cracked, infections)
	if unit != nil {
		// Flush the trailing partial window so the last alerts are scored.
		unit.Flush()
		det, ttm := "n/a", "n/a"
		if d, ok := tb.DetectionLatency(unit); ok {
			det = d.Round(time.Millisecond).String()
		}
		if fw != nil {
			if d, ok := tb.TimeToMitigate(fw); ok {
				ttm = d.Round(time.Millisecond).String()
			}
			fmt.Printf("defense: detection latency %s, time-to-mitigate %s\n", det, ttm)
			r := tb.MitigationScoreboard().Units[0]
			fmt.Printf("mitigation: %d frames evaluated, %d dropped (%d attack, %d collateral), %d attack frames passed\n",
				r.Evaluated, r.Dropped, r.AttackDrops, r.CollateralDrops, r.AttackPassed)
		} else {
			fmt.Printf("defense: detection latency %s\n", det)
		}
	}
	httpReqs, _ := tb.HTTPServer().Stats()
	streams, _ := tb.VideoServer().Stats()
	_, transfers, _, _ := tb.FTPServer().Stats()
	fmt.Printf("benign: %d HTTP requests, %d video streams, %d FTP transfers\n",
		httpReqs, streams, transfers)
	if samples := ts.Samples(); len(samples) > 0 {
		var sum uint64
		for _, s := range samples {
			sum += s.RxBytes
		}
		fmt.Printf("TServer mean rx: %.2f Mb/s over %d s\n",
			float64(sum)*8/float64(len(samples))/1e6, len(samples))
	}

	if dc != nil {
		ds := dc.Dataset()
		fmt.Println("dataset:", ds.Summarize())
		if err := writeFile(*outCSV, ds.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("dataset written to %s\n", *outCSV)
	}
	if pcapFile != nil {
		if err := pcapFile.Close(); err != nil {
			return err
		}
		fmt.Printf("capture written to %s\n", *outPcap)
	}
	if *artifacts != "" {
		return writeArtifacts(*artifacts, r)
	}
	return nil
}

// An artifact is one end-of-run file and how to render it.
type artifact struct {
	name   string
	render func(io.Writer) error
}

// writeArtifacts renders the run's end-of-run artifacts into dir.
func writeArtifacts(dir string, r *scenario.Run) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tb := r.Testbed
	files := []artifact{
		{"summary.txt", func(w io.Writer) error {
			_, err := io.WriteString(w, tb.Summary())
			return err
		}},
		{"metrics.prom", func(w io.Writer) error { return telemetry.WritePrometheus(w, tb.Registry()) }},
		{"metrics.json", func(w io.Writer) error { return telemetry.WriteJSON(w, tb.Scheduler().Now(), tb.Registry()) }},
		{"flight.json", func(w io.Writer) error { return telemetry.WriteChromeTrace(w, tb.Recorder()) }},
	}
	if tb.Tracer() != nil {
		// Canonical form: span IDs and finish order follow the domains'
		// goroutines, the causal structure does not.
		files = append(files, artifact{"spans.jsonl", func(w io.Writer) error {
			return trace.WriteSpans(w, trace.CanonicalSpans(tb.Tracer().Spans()))
		}})
	}
	if r.Firewall != nil {
		files = append(files, artifact{"mitigation.json", func(w io.Writer) error {
			data, err := tb.MitigationScoreboard().JSON()
			if err == nil {
				_, err = w.Write(data)
			}
			return err
		}})
	}
	// The profile is written last so its teardown phase covers the other
	// artifacts' rendering time.
	files = append(files, artifact{"profile.json", func(w io.Writer) error {
		tb.Profiler().EndPhase(prof.PhaseTeardown)
		return tb.Profile().WriteJSON(w)
	}})
	for _, a := range files {
		if err := writeFile(filepath.Join(dir, a.name), a.render); err != nil {
			return err
		}
	}
	fmt.Printf("artifacts written to %s\n", dir)
	fmt.Fprint(os.Stderr, tb.BottleneckReport().String())
	return nil
}

// writeFile renders one output file to path.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
