// Command benchtables regenerates every table and figure of the paper's
// evaluation section from scratch:
//
//	benchtables -table 1            Table I  (real-time detection accuracy)
//	benchtables -table 2            Table II (CPU %, memory, model size)
//	benchtables -table all          both tables + §IV-D dataset & training rows
//	benchtables -table mitigation   the closed-loop mitigation sweep (threshold
//	                                × cache size × reaction delay); -scale quick
//	                                runs one grid point, -scale paper the grid
//	benchtables -series per-second  the per-window accuracy timeline with its
//	                                boundary dips (§IV-D discussion)
//	benchtables -series bots        the connected-bots timeline (DDoSim)
//	benchtables -series throughput  TServer throughput under attack (DDoSim)
//	-scale quick|paper selects the CI-scale or paper-scale scenario.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ddoshield/internal/botnet"
	"ddoshield/internal/experiments"
	"ddoshield/internal/report"
	"ddoshield/internal/sim"
	"ddoshield/internal/testbed"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		table  = flag.String("table", "", "regenerate a table: 1, 2, all or mitigation")
		series = flag.String("series", "", "regenerate a series: per-second, bots, throughput")
		scale  = flag.String("scale", "quick", "scenario scale: quick or paper")
		seed   = flag.Int64("seed", 0, "override the scenario seed (0 = preset)")
	)
	flag.Parse()
	if *table == "" && *series == "" {
		*table = "all"
	}

	var sc experiments.Scenario
	switch *scale {
	case "quick":
		sc = experiments.Quick()
	case "paper":
		sc = experiments.Paper()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	switch *series {
	case "":
	case "bots":
		return runBotsSeries(sc)
	case "throughput":
		return runThroughputSeries(sc)
	case "per-second":
		return runPerSecondSeries(sc)
	default:
		return fmt.Errorf("unknown series %q", *series)
	}

	switch *table {
	case "1", "2", "all":
	case "mitigation":
		return runMitigationSweep(sc.Seed, *scale == "quick")
	default:
		return fmt.Errorf("unknown table %q", *table)
	}

	fmt.Printf("== generating dataset (%v run, %d devices) ==\n", sc.TrainDuration, sc.Devices)
	ds, err := sc.GenerateDataset()
	if err != nil {
		return err
	}
	sum := ds.Summarize()
	fmt.Printf("§IV-D dataset: %s\n", sum)
	fmt.Printf("  (paper: 3,012,885 malicious / 2,243,634 benign — 57.3%%/42.7%%; here %.1f%%/%.1f%%)\n\n",
		100*float64(sum.Malicious)/float64(sum.Total), 100*float64(sum.Benign)/float64(sum.Total))

	fmt.Println("== training RF / K-Means / CNN ==")
	tr, err := sc.TrainModels(ds)
	if err != nil {
		return err
	}
	fmt.Println("§IV-D offline training metrics (80/20 split):")
	for _, tm := range tr.Models() {
		fmt.Printf("  %-8s %v\n", tm.Model.Name(), tm.TrainReport)
	}
	fmt.Println()

	fmt.Printf("== real-time detection (%v run) ==\n", sc.DetectDuration)
	rt, err := sc.RunRealTime(tr)
	if err != nil {
		return err
	}

	if *table == "1" || *table == "all" {
		fmt.Println("TABLE I — ML Models Performance Evaluation in Real-Time Detection")
		fmt.Println(experiments.FormatTable1(rt.Table1))
		fmt.Println("paper reference: RF 61.22 / K-Means 94.82 / CNN 95.47")
		for _, r := range rt.Table1 {
			fmt.Printf("  %-8s worst window: %.2f%%\n", r.Model, r.MinAccuracy*100)
		}
		fmt.Println("paper reference minimum: 35% (K-Means, at attack boundaries)")
		fmt.Println()
	}
	if *table == "2" || *table == "all" {
		fmt.Println("TABLE II — ML Models Sustainability")
		fmt.Println(experiments.FormatTable2(rt.Table2))
		fmt.Println("paper reference: RF 65.46/98.07/712.30  K-Means 67.88/86.83/11.20  CNN 65.94/275.85/736.30")
	}
	if len(rt.Detection) > 0 {
		fmt.Println()
		fmt.Println("DETECTION LATENCY — the C2's first attack order → first correct alert")
		fmt.Println(experiments.FormatDetection(rt.Detection))
	}
	return nil
}

// runMitigationSweep runs the closed-loop defense sweep. quick shrinks the
// grid to one point (the CI smoke).
func runMitigationSweep(seed int64, quick bool) error {
	cfg := experiments.MitigationSweepConfig{Seed: seed}
	if quick {
		cfg.Thresholds = []int{4}
		cfg.CacheSizes = []int{256}
		cfg.ReactionDelays = []time.Duration{0}
	}
	points, err := experiments.RunMitigationSweep(cfg)
	if err != nil {
		return err
	}
	fmt.Println("MITIGATION SWEEP — aggregation threshold × verdict-cache size × reaction delay")
	fmt.Print(experiments.FormatMitigationSweep(points))
	return nil
}

func runBotsSeries(sc experiments.Scenario) error {
	fmt.Println("# connected-bots timeline (DDoSim-inherited figure)")
	fmt.Println("time_s,bots")
	hist, err := sc.BotsTimeline(true, sc.TrainDuration)
	if err != nil {
		return err
	}
	for _, s := range hist {
		fmt.Printf("%.1f,%d\n", s.Time.Seconds(), s.Bots)
	}
	return nil
}

func runThroughputSeries(sc experiments.Scenario) error {
	fmt.Println("# TServer rx throughput under SYN flood (DDoSim-inherited figure)")
	tb, err := testbed.New(testbed.Config{Seed: sc.Seed, NumDevices: sc.Devices})
	if err != nil {
		return err
	}
	ts := tb.NewThroughputSampler()
	tb.Start()
	if err := tb.Run(90 * time.Second); err != nil {
		return err
	}
	tb.C2().Broadcast(botnet.Command{
		Type: botnet.AttackSYN, Target: tb.TServerAddr(), Port: 80,
		Duration: 30 * time.Second, PPS: experiments.TrainPPS,
	})
	if err := tb.Run(60 * time.Second); err != nil {
		return err
	}
	fmt.Println("time_s,rx_mbps,phase")
	rates := make([]float64, 0, len(ts.Samples()))
	for _, s := range ts.Samples() {
		phase := "benign"
		if s.Time > 90*sim.Second && s.Time <= 120*sim.Second {
			phase = "attack"
		}
		mbps := float64(s.RxBytes) * 8 / 1e6
		rates = append(rates, mbps)
		fmt.Printf("%.0f,%.3f,%s\n", s.Time.Seconds(), mbps, phase)
	}
	fmt.Printf("\n# rx Mb/s (attack window at t=90..120s)\nrx       %s\n",
		report.Sparkline(report.Downsample(rates, 72), 0, 0))
	return nil
}

func runPerSecondSeries(sc experiments.Scenario) error {
	ds, err := sc.GenerateDataset()
	if err != nil {
		return err
	}
	tr, err := sc.TrainModels(ds)
	if err != nil {
		return err
	}
	rt, err := sc.RunRealTime(tr)
	if err != nil {
		return err
	}
	fmt.Println("# per-second accuracy series (§IV-D boundary-dip figure)")
	fmt.Println("time_s,model,packets,truth_malicious,accuracy")
	for _, row := range rt.Table1 {
		for _, w := range row.Series {
			fmt.Printf("%.0f,%s,%d,%d,%.4f\n",
				w.Start.Seconds(), row.Model, w.Packets, w.TruthMalicious, w.Accuracy)
		}
	}
	fmt.Println("\n# accuracy per window, 0-100% (dips are attack boundaries)")
	for _, row := range rt.Table1 {
		accs := make([]float64, len(row.Series))
		for i, w := range row.Series {
			accs[i] = w.Accuracy
		}
		fmt.Printf("%-8s %s\n", row.Model, report.Sparkline(report.Downsample(accs, 72), 0, 1))
	}
	return nil
}
