// Package ddoshield's root benchmark suite regenerates every table and
// figure of the paper (see DESIGN.md's experiment index) as testing.B
// benchmarks, reporting the reproduced quantities through b.ReportMetric:
//
//	go test -bench=Table1 -benchmem .        Table I rows
//	go test -bench=Table2 .                  Table II rows
//	go test -bench=Fig .                     figure-level series
//	go test -bench=Ablation .                design-choice ablations
//
// Absolute numbers depend on scenario scale (these benches run the Quick
// scenario; cmd/benchtables -scale paper runs the 10-min/5-min scale); the
// shapes mirror the paper as documented in EXPERIMENTS.md.
package ddoshield

import (
	"testing"
	"time"

	"ddoshield/internal/botnet"
	"ddoshield/internal/dataset"
	"ddoshield/internal/experiments"
	"ddoshield/internal/features"
	"ddoshield/internal/ids"
	"ddoshield/internal/mitigation"
	"ddoshield/internal/ml"
	"ddoshield/internal/ml/cnn"
	"ddoshield/internal/ml/forest"
	"ddoshield/internal/ml/kmeans"
	"ddoshield/internal/sim"
	"ddoshield/internal/testbed"
)

// benchScenario is the Quick scenario trimmed for benchmark iterations.
func benchScenario() experiments.Scenario {
	// Training at full Quick scale (the CNN is data-hungry); detection
	// trimmed for per-iteration speed.
	sc := experiments.Quick()
	sc.DetectDuration = 45 * time.Second
	sc.InfectionLead = 60 * time.Second
	return sc
}

// pipeline caches one trained pipeline across benchmark functions so each
// table bench doesn't retrain from scratch.
var pipelineCache struct {
	sc experiments.Scenario
	ds *dataset.Dataset
	tr *experiments.TrainingResult
}

func cachedPipeline(b *testing.B) (*dataset.Dataset, *experiments.TrainingResult) {
	b.Helper()
	if pipelineCache.tr != nil {
		return pipelineCache.ds, pipelineCache.tr
	}
	sc := benchScenario()
	ds, err := sc.GenerateDataset()
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sc.TrainModels(ds)
	if err != nil {
		b.Fatal(err)
	}
	pipelineCache.sc = sc
	pipelineCache.ds = ds
	pipelineCache.tr = tr
	return ds, tr
}

// BenchmarkTableDatasetGeneration regenerates the §IV-D dataset row: a
// traffic-generation run producing a labeled, near-balanced corpus.
func BenchmarkTableDatasetGeneration(b *testing.B) {
	sc := benchScenario()
	for i := 0; i < b.N; i++ {
		sc.Seed = int64(100 + i)
		ds, err := sc.GenerateDataset()
		if err != nil {
			b.Fatal(err)
		}
		sum := ds.Summarize()
		b.ReportMetric(float64(sum.Total), "packets")
		b.ReportMetric(100*float64(sum.Malicious)/float64(sum.Total), "malicious%")
		b.ReportMetric(sum.BalanceRatio(), "balance")
	}
}

// BenchmarkTableTrainingMetrics regenerates the §IV-D offline training
// row: all three models trained with their held-out metrics.
func BenchmarkTableTrainingMetrics(b *testing.B) {
	ds, _ := cachedPipeline(b)
	sc := benchScenario()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := sc.TrainModels(ds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(tr.RF.TrainReport.Accuracy*100, "rf-acc%")
		b.ReportMetric(tr.KMeans.TrainReport.Accuracy*100, "km-acc%")
		b.ReportMetric(tr.CNN.TrainReport.Accuracy*100, "cnn-acc%")
	}
}

// BenchmarkTable1RealTimeAccuracy regenerates Table I: average per-window
// real-time accuracy per model (paper: RF 61.22, K-Means 94.82, CNN 95.47).
func BenchmarkTable1RealTimeAccuracy(b *testing.B) {
	_, tr := cachedPipeline(b)
	sc := pipelineCache.sc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := sc.RunRealTime(tr)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rt.Table1 {
			b.ReportMetric(row.AvgAccuracy*100, row.Model+"-acc%")
		}
	}
}

// BenchmarkTable2Sustainability regenerates Table II: CPU %, memory and
// model size per model during real-time detection.
func BenchmarkTable2Sustainability(b *testing.B) {
	_, tr := cachedPipeline(b)
	sc := pipelineCache.sc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := sc.RunRealTime(tr)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rt.Table2 {
			b.ReportMetric(row.CPUPercent, row.Model+"-cpu%")
			b.ReportMetric(row.MemoryKb, row.Model+"-memKb")
			b.ReportMetric(row.ModelSizeKb, row.Model+"-sizeKb")
		}
	}
}

// BenchmarkFigPerSecondAccuracy regenerates the §IV-D per-second series:
// accuracy dips at attack boundaries (paper minimum: 35% for K-Means).
func BenchmarkFigPerSecondAccuracy(b *testing.B) {
	_, tr := cachedPipeline(b)
	sc := pipelineCache.sc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := sc.RunRealTime(tr)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rt.Table1 {
			b.ReportMetric(row.MinAccuracy*100, row.Model+"-min%")
		}
	}
}

// BenchmarkFigThroughputUnderAttack regenerates the DDoSim throughput
// figure: TServer rx rate before vs during a SYN flood.
func BenchmarkFigThroughputUnderAttack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := testbed.New(testbed.Config{Seed: int64(20 + i), NumDevices: 8})
		if err != nil {
			b.Fatal(err)
		}
		ts := tb.NewThroughputSampler(time.Second)
		tb.Start()
		if err := tb.Run(80 * time.Second); err != nil {
			b.Fatal(err)
		}
		tb.C2().Broadcast(botnet.Command{
			Type: botnet.AttackSYN, Target: tb.TServerAddr(), Port: 80,
			Duration: 20 * time.Second, PPS: 1000,
		})
		if err := tb.Run(25 * time.Second); err != nil {
			b.Fatal(err)
		}
		now := tb.Scheduler().Now()
		before := ts.MeanRxBps(0, 80*sim.Second)
		during := ts.MeanRxBps(80*sim.Second, now)
		b.ReportMetric(before/1e6, "before-mbps")
		b.ReportMetric(during/1e6, "during-mbps")
		if during > 0 && before > 0 {
			b.ReportMetric(during/before, "xfactor")
		}
	}
}

// BenchmarkFigBotsConnected regenerates the DDoSim connected-bots figure:
// peak botnet population with churn enabled.
func BenchmarkFigBotsConnected(b *testing.B) {
	sc := benchScenario()
	for i := 0; i < b.N; i++ {
		sc.Seed = int64(30 + i)
		hist, err := sc.BotsTimeline(true, 2*time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		peak := 0
		for _, p := range hist {
			if p.Bots > peak {
				peak = p.Bots
			}
		}
		b.ReportMetric(float64(peak), "peak-bots")
		b.ReportMetric(float64(len(hist)), "population-changes")
	}
}

// BenchmarkFigChurnSweep sweeps device churn rates — the DDoSim experiment
// on how churn limits the standing botnet population.
func BenchmarkFigChurnSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, meanUp := range []time.Duration{30 * time.Second, 2 * time.Minute} {
			tb, err := testbed.New(testbed.Config{
				Seed:       int64(40 + i),
				NumDevices: 10,
				Churn:      testbed.ChurnConfig{Enabled: true, MeanUp: meanUp},
			})
			if err != nil {
				b.Fatal(err)
			}
			tb.Start()
			if err := tb.Run(3 * time.Minute); err != nil {
				b.Fatal(err)
			}
			label := "fast-churn-bots"
			if meanUp >= 2*time.Minute {
				label = "slow-churn-bots"
			}
			b.ReportMetric(float64(tb.C2().Bots()), label)
		}
	}
}

// BenchmarkAblationFeatureSets contrasts the Table I RF (statistics-only
// decisions, the configuration that reproduces the paper's 61%) with the
// full basic∥stats RF — the §III-B aggregation claim: per-packet basic
// features rescue accuracy inside mixed windows.
func BenchmarkAblationFeatureSets(b *testing.B) {
	ds, tr := cachedPipeline(b)
	sc := pipelineCache.sc
	fullRF, err := sc.TrainFullVectorRF(ds)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trFull := &experiments.TrainingResult{
			RF:     experiments.TrainedModel{Model: fullRF},
			KMeans: tr.KMeans,
			CNN:    tr.CNN,
		}
		rt, err := sc.RunRealTime(trFull)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rt.Table1 {
			if row.Model == "rf" {
				b.ReportMetric(row.AvgAccuracy*100, "fullvec-rf-acc%")
			}
		}
		rtStats, err := sc.RunRealTime(tr)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rtStats.Table1 {
			if row.Model == "rf" {
				b.ReportMetric(row.AvgAccuracy*100, "statsonly-rf-acc%")
			}
		}
	}
}

// BenchmarkAblationWindowLength sweeps the aggregation window (the paper's
// §IV-E mitigation: longer windows cut per-second CPU at some accuracy
// cost at boundaries).
func BenchmarkAblationWindowLength(b *testing.B) {
	_, tr := cachedPipeline(b)
	base := pipelineCache.sc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
			sc := base
			sc.Window = w
			rt, err := sc.RunRealTime(tr)
			if err != nil {
				b.Fatal(err)
			}
			for _, row := range rt.Table1 {
				if row.Model == "kmeans" {
					b.ReportMetric(row.AvgAccuracy*100, "km-acc%-"+w.String())
				}
			}
			for _, row := range rt.Table2 {
				if row.Model == "kmeans" {
					b.ReportMetric(row.CPUPercent, "km-cpu%-"+w.String())
				}
			}
		}
	}
}

// BenchmarkAblationModels sweeps model hyperparameters: forest depth,
// K-Means entropy penalty on/off, CNN width.
func BenchmarkAblationModels(b *testing.B) {
	ds, _ := cachedPipeline(b)
	rng := sim.NewRNG(1)
	work := ds.Subsample(12000, rng)
	work.Shuffle(rng)
	train, test := work.Split(0.8)
	// Standardize: the distance- and gradient-based sweeps are meaningless
	// on raw count-scaled features.
	scaler := dataset.FitStandard(train)
	scaler.Apply(train)
	scaler.Apply(test)
	xs, ys := train.XY()
	score := func(m ml.Classifier) float64 {
		ok := 0
		for i := range test.Samples {
			if m.Predict(test.Samples[i].X) == test.Samples[i].Y {
				ok++
			}
		}
		return 100 * float64(ok) / float64(test.Len())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shallow, err := forest.Train(forest.Config{Trees: 20, MaxDepth: 4, Seed: 1}, xs, ys)
		if err != nil {
			b.Fatal(err)
		}
		deep, err := forest.Train(forest.Config{Trees: 20, MaxDepth: 16, Seed: 1}, xs, ys)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(score(shallow), "rf-depth4-acc%")
		b.ReportMetric(score(deep), "rf-depth16-acc%")

		kmLow, err := kmeans.Train(kmeans.Config{InitClusters: 24, Gamma: 0.01, Seed: 1}, xs, ys)
		if err != nil {
			b.Fatal(err)
		}
		kmHigh, err := kmeans.Train(kmeans.Config{InitClusters: 24, Gamma: 10, Seed: 1}, xs, ys)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(kmLow.ClusterCount()), "km-clusters-gamma0")
		b.ReportMetric(float64(kmHigh.ClusterCount()), "km-clusters-gamma10")

		narrow, _, err := cnn.Train(cnn.Config{Conv1Filters: 4, Conv2Filters: 8, Hidden: 16, Epochs: 3, Seed: 1}, xs, ys)
		if err != nil {
			b.Fatal(err)
		}
		wide, _, err := cnn.Train(cnn.Config{Conv1Filters: 16, Conv2Filters: 32, Hidden: 96, Epochs: 3, Seed: 1}, xs, ys)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(score(narrow), "cnn-narrow-acc%")
		b.ReportMetric(score(wide), "cnn-wide-acc%")
	}
}

// BenchmarkExtensionModels runs the §V extension study the paper plans:
// SVM, Isolation Forest and VAE evaluated in the same real-time
// environment as the paper's three models.
func BenchmarkExtensionModels(b *testing.B) {
	ds, _ := cachedPipeline(b)
	sc := pipelineCache.sc
	ext, err := sc.TrainExtendedModels(ds)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := sc.RunRealTimeModels(ext)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rt.Table1 {
			b.ReportMetric(row.AvgAccuracy*100, row.Model+"-acc%")
		}
		for _, row := range rt.Table2 {
			b.ReportMetric(row.ModelSizeKb, row.Model+"-sizeKb")
		}
	}
}

// BenchmarkExtensionMitigation measures the response loop: how much of
// the flood the IDS-driven firewall removes at the TServer's ingress.
func BenchmarkExtensionMitigation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := testbed.New(testbed.Config{Seed: int64(50 + i), NumDevices: 8})
		if err != nil {
			b.Fatal(err)
		}
		idx := map[string]int{}
		for j, n := range features.Names() {
			idx[n] = j
		}
		fw := mitigation.NewFirewall(tb.Scheduler(), tb.TServer().Host().NIC())
		resp := mitigation.NewResponder(fw, mitigation.ResponderConfig{BlockTTL: time.Minute})
		unit := ids.New(ids.Config{
			Model:    benchRule{syn: idx["win_syn_noack_ratio"], udp: idx["win_udp_fraction"]},
			Window:   time.Second,
			OnWindow: resp.HandleWindow,
		})
		tb.AddTap(unit.Tap())
		tb.Start()
		if err := tb.Run(90 * time.Second); err != nil {
			b.Fatal(err)
		}
		tb.C2().Broadcast(botnet.Command{
			Type: botnet.AttackSYN, Target: tb.TServerAddr(), Port: 80,
			Duration: 20 * time.Second, PPS: 1000,
		})
		if err := tb.Run(25 * time.Second); err != nil {
			b.Fatal(err)
		}
		unit.Flush()
		evaluated, dropped := fw.Stats()
		if evaluated > 0 {
			b.ReportMetric(100*float64(dropped)/float64(evaluated), "ingress-drop%")
		}
		alerts, _, prefixRules := resp.Stats()
		b.ReportMetric(float64(alerts), "alerts")
		b.ReportMetric(float64(prefixRules), "prefix-rules")
	}
}

// benchRule is the deterministic flood detector used by the mitigation
// bench.
type benchRule struct{ syn, udp int }

func (r benchRule) Predict(x []float64) int {
	if x[r.syn] > 20 || x[r.udp] > 0.4 {
		return 1
	}
	return 0
}
func (benchRule) Name() string { return "rule" }
