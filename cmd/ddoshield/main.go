// Command ddoshield runs a full DDoShield-IoT testbed scenario: benign
// traffic from the device fleet against the TServer, a Mirai campaign
// (scan, infect, C2, flood waves), and capture at the TServer uplink. It
// writes the labeled dataset as CSV and, optionally, the raw capture as a
// standard pcap file — the data-generation phase of §IV-D.
//
// Usage:
//
//	ddoshield -duration 10m -devices 20 -out dataset.csv -pcap run.pcap
//	ddoshield -devices 1000 -groups 8 -domains 4     # partitioned fleet run
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"ddoshield/internal/faults"
	"ddoshield/internal/ids"
	"ddoshield/internal/mitigation"
	"ddoshield/internal/pcap"
	"ddoshield/internal/scenario"
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
		duration  = flag.Duration("duration", 2*time.Minute, "simulated run length")
		devices   = flag.Int("devices", 10, "IoT device count")
		groups    = flag.Int("groups", 0, "split the fleet across this many edge switches (0/1 = flat single-switch topology); devices are packed by the load-aware partitioner")
		seed      = flag.Int64("seed", 42, "simulation seed")
		warmup    = flag.Duration("warmup", 30*time.Second, "benign-only lead before the first attack wave")
		attackDur = flag.Duration("attack", 12*time.Second, "duration of each flood vector")
		attackGap = flag.Duration("gap", 3*time.Second, "gap between flood vectors")
		pps       = flag.Int("pps", 400, "per-bot flood rate (packets/s)")
		churn     = flag.Bool("churn", false, "enable device churn (reboots)")
		domains   = flag.Int("domains", 1, "PDES domain count (>1 partitions the run across scheduler goroutines; results are byte-identical to -domains 1)")
		chaos     = flag.Float64("chaos", 0, "fault-injection intensity in [0,1]: seeded random plan of link flaps, impairment windows and crash loops across the fleet (0 disables)")
		outCSV    = flag.String("out", "", "write the labeled dataset CSV here")
		outPcap   = flag.String("pcap", "", "write the raw capture here (pcap format)")
		window    = flag.Duration("window", time.Second, "feature aggregation window")
		config    = flag.String("config", "", "JSON scenario file (overrides topology/attack flags)")

		metricsOut  = flag.String("metrics-out", "", "write a Prometheus-text metrics snapshot here at end of run")
		metricsJSON = flag.String("metrics-json", "", "write a JSON metrics snapshot here at end of run")
		traceOut    = flag.String("trace-out", "", "write the flight recorder as chrome://tracing JSON here")
		listen      = flag.String("listen", "", "serve live /metrics, /metrics.json and /trace on this address (e.g. :9090)")

		idsFlag       = flag.Bool("ids", false, "attach an inline threshold-rule IDS unit at the TServer uplink (detection latency is printed at end of run)")
		mitigate      = flag.Bool("mitigate", false, "close the detection loop: install the verdict-cache firewall at the TServer ingress, fed by IDS alerts (requires -ids)")
		mitigationOut = flag.String("mitigation-out", "", "write the final mitigation scoreboard JSON here (requires -mitigate)")

		traceSample = flag.Float64("trace-sample", 0, "causal-tracing flow sample rate in [0,1] (0 disables; 1 traces every flow)")
		spanOut     = flag.String("span-out", "", "write finished causal-trace spans here as JSONL (analyze with tracetool)")
		summaryOut  = flag.String("summary-out", "", "write the end-of-run testbed summary here (byte-stable for a given seed, for determinism diffing)")
		profileOut  = flag.String("profile-out", "", "write the simulation profile (virtual-load attribution, engine stats, wall-clock phases) here as JSON and print the bottleneck report; every run keeps the profile, the flag only writes it out")
		pprofFlag   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the -listen address (requires -listen)")
	)
	flag.Parse()
	if *pprofFlag && *listen == "" {
		return fmt.Errorf("-pprof requires -listen")
	}
	if *mitigate && !*idsFlag {
		return fmt.Errorf("-mitigate requires -ids (the firewall is driven by IDS window alerts)")
	}
	if *mitigationOut != "" && !*mitigate {
		return fmt.Errorf("-mitigation-out requires -mitigate")
	}

	var (
		tb  *testbed.Testbed
		def *scenario.Definition
		err error
	)
	if *config != "" {
		f, err := os.Open(*config)
		if err != nil {
			return err
		}
		def, err = scenario.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		tb, err = def.Apply()
		if err != nil {
			return err
		}
		*duration = def.Duration()
		*window = def.Window()
		fmt.Printf("scenario %q loaded from %s\n", def.Name, *config)
	} else {
		tb, err = testbed.New(testbed.Config{
			Seed:            *seed,
			NumDevices:      *devices,
			DeviceGroups:    *groups,
			Churn:           testbed.ChurnConfig{Enabled: *churn},
			TraceSampleRate: *traceSample,
			Domains:         *domains,
		})
		if err != nil {
			return err
		}
	}

	dc := tb.NewDatasetCollector(*window)
	tb.AddTap(dc.Tap())

	var pcapFile *os.File
	if *outPcap != "" {
		pcapFile, err = os.Create(*outPcap)
		if err != nil {
			return err
		}
		defer pcapFile.Close()
		pw, err := pcap.NewWriter(pcapFile, 0)
		if err != nil {
			return err
		}
		tb.AddTap(pw.Tap())
	}

	ts := tb.NewThroughputSampler(time.Second)

	// The detection loop: an inline threshold-rule unit at the observation
	// tap, optionally closed by the verdict-cache firewall at the ingress.
	var (
		unit *ids.Unit
		fw   *mitigation.Firewall
	)
	if *idsFlag {
		unit = ids.New(ids.Config{
			Model:    ids.NewThresholdRule(),
			Window:   *window,
			Labeler:  tb.Labeler(),
			Registry: tb.Registry(),
		})
		tb.AttachIDS(unit)
		if *mitigate {
			fw = tb.AttachMitigation(unit, testbed.MitigationConfig{})
		}
	}

	// Live observability endpoint: the sim thread refreshes rendered
	// snapshots once per simulated second; HTTP handlers only ever serve
	// those cached bytes, so no handler touches simulation state.
	var live *telemetry.LiveServer
	if *listen != "" {
		live = telemetry.NewLiveServerOptions(telemetry.LiveServerOptions{EnablePprof: *pprofFlag})
		tb.Scheduler().Every(time.Second, func() {
			live.Update(tb.Scheduler().Now(), tb.Registry(), tb.Recorder())
			if fw != nil {
				if data, err := tb.MitigationScoreboard().JSON(); err == nil {
					live.UpdateMitigation(data)
				}
			}
		})
		// The profile walks the whole topology, so refresh it at a coarser
		// cadence than the per-second metrics tick.
		tb.Scheduler().Every(5*time.Second, func() {
			if data, err := tb.Profile(0).JSON(); err == nil {
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

	if *chaos > 0 {
		tb.Injector().Schedule(faults.Random(faults.RandomConfig{
			Seed:      *seed + 7,
			Start:     *warmup / 2,
			Window:    *duration,
			Intensity: *chaos,
		}))
	}

	if def == nil {
		// Repeating SYN/ACK/UDP waves for the whole run (the scenario file
		// carries its own attack plan).
		wave := tb.DefaultAttackWave(*attackDur, *pps)
		period := time.Duration(len(wave))*(*attackDur+*attackGap) + *attackGap
		for start := *warmup; start < *duration; start += period {
			tb.ScheduleAttackWave(start, *attackGap, wave)
		}
	}

	if def != nil {
		fmt.Printf("running scenario %q for %v...\n", def.Name, *duration)
	} else {
		fmt.Printf("running %v with %d devices (seed %d)...\n", *duration, *devices, *seed)
	}
	startWall := time.Now()
	if err := tb.Run(*duration); err != nil {
		return err
	}
	fmt.Printf("simulated %v in %v wall time\n", *duration, time.Since(startWall).Round(time.Millisecond))
	// Everything after Run — dataset rendering, snapshot writing — is the
	// teardown phase of the campaign profile.
	tb.Profiler().StartPhase(prof.PhaseTeardown)

	ds := dc.Dataset()
	fmt.Println("dataset:", ds.Summarize())
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
			evaluated, dropped := fw.Stats()
			fmt.Printf("mitigation: %d frames evaluated, %d dropped (%d attack, %d collateral), %d attack frames passed\n",
				evaluated, dropped, fw.AttackDrops(), fw.CollateralDrops(), fw.AttackPassed())
		} else {
			fmt.Printf("defense: detection latency %s\n", det)
		}
	}
	httpReqs, _ := tb.HTTPServer().Stats()
	streams, _ := tb.VideoServer().Stats()
	_, transfers, _, _ := tb.FTPServer().Stats()
	fmt.Printf("benign: %d HTTP requests, %d video streams, %d FTP transfers\n",
		httpReqs, streams, transfers)
	samples := ts.Samples()
	if len(samples) > 0 {
		var sum uint64
		for _, s := range samples {
			sum += s.RxBytes
		}
		fmt.Printf("TServer mean rx: %.2f Mb/s over %d s\n",
			float64(sum)*8/float64(len(samples))/1e6, len(samples))
	}

	if *outCSV != "" {
		f, err := os.Create(*outCSV)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := ds.WriteCSV(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("dataset written to %s\n", *outCSV)
	}
	if *outPcap != "" {
		fmt.Printf("capture written to %s\n", *outPcap)
	}
	if err := writeSnapshot(*metricsOut, "metrics", func(w *os.File) error {
		return telemetry.WritePrometheus(w, tb.Registry())
	}); err != nil {
		return err
	}
	if err := writeSnapshot(*metricsJSON, "metrics JSON", func(w *os.File) error {
		return telemetry.WriteJSON(w, tb.Scheduler().Now(), tb.Registry())
	}); err != nil {
		return err
	}
	if err := writeSnapshot(*traceOut, "trace", func(w *os.File) error {
		return telemetry.WriteChromeTrace(w, tb.Recorder())
	}); err != nil {
		return err
	}
	if err := writeSnapshot(*summaryOut, "summary", func(w *os.File) error {
		_, err := w.WriteString(tb.Summary())
		return err
	}); err != nil {
		return err
	}
	if fw != nil {
		if err := writeSnapshot(*mitigationOut, "mitigation scoreboard", func(w *os.File) error {
			data, err := tb.MitigationScoreboard().JSON()
			if err != nil {
				return err
			}
			_, err = w.Write(data)
			return err
		}); err != nil {
			return err
		}
	}
	if *spanOut != "" {
		if tb.Tracer() == nil {
			fmt.Println("spans: no tracer attached (set -trace-sample > 0, or a scenario without tracing was loaded); skipping", *spanOut)
		} else if err := writeSnapshot(*spanOut, "spans", func(w *os.File) error {
			return trace.WriteSpans(w, tb.Tracer().Spans())
		}); err != nil {
			return err
		}
	}
	// The profile is written last so its teardown phase covers the other
	// artifacts' rendering time.
	tb.Profiler().EndPhase(prof.PhaseTeardown)
	if *profileOut != "" {
		if err := writeSnapshot(*profileOut, "profile", func(w *os.File) error {
			return tb.Profile(0).WriteJSON(w)
		}); err != nil {
			return err
		}
		fmt.Fprint(os.Stderr, tb.BottleneckReport(0).String())
	}
	return nil
}

// writeSnapshot renders one end-of-run telemetry artifact to path (no-op
// when path is empty).
func writeSnapshot(path, what string, render func(*os.File) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("%s written to %s\n", what, path)
	return nil
}
