package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ddoshield/internal/experiments"
	"ddoshield/internal/ml/modelio"
)

// modelNames are the paper's three detectors in Table order; each is saved
// as <name>.model in the run directory.
var modelNames = []string{"rf", "kmeans", "cnn"}

// detectWindow is the measured window of the paper10-shaped runs: the
// detection duration of experiments.Quick(). It is also how much traffic
// the ids-replay input holds, 60 one-second windows per model.
const detectWindow = 60 * time.Second

// trainingScenario is experiments.Quick() driven by the workload seed.
func trainingScenario(seed int64, smoke bool) experiments.Scenario {
	sc := experiments.Quick()
	sc.Seed = seed
	if smoke {
		sc.TrainDuration, sc.BenignWarmup = 40*time.Second, 12*time.Second
		sc.MaxTrainSamples = 3000
	}
	return sc
}

// prepModels runs the paper's offline phase: generate the labeled corpus,
// fit RF, K-Means and CNN, and save each as a detection bundle in dir.
func prepModels(seed int64, smoke bool, dir string, res *repResult) error {
	sc := trainingScenario(seed, smoke)
	start := time.Now()
	ds, err := sc.GenerateDataset()
	if err != nil {
		return fmt.Errorf("generate dataset: %w", err)
	}
	generated := time.Now()
	tr, err := sc.TrainModels(ds)
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	trained := time.Now()
	for _, tm := range tr.Models() {
		name := tm.Model.Name()
		path := filepath.Join(dir, name+".model")
		if err := modelio.SaveBundleFile(path, modelio.Bundle{Model: tm.Model, Scaler: tm.Scaler}); err != nil {
			return err
		}
		res.Counters["ml.model_kb."+name] = float64(tm.SizeBytes) / 1024
	}
	res.Counters["dataset.generate_s"] = generated.Sub(start).Seconds()
	res.Counters["dataset.samples"] = float64(ds.Len())
	res.Counters["ml.train_all_s"] = trained.Sub(generated).Seconds()
	res.SetupS = time.Since(start).Seconds()
	return nil
}

func loadBundles(dir string) ([]modelio.Bundle, error) {
	out := make([]modelio.Bundle, 0, len(modelNames))
	for _, name := range modelNames {
		b, err := modelio.LoadBundleFile(filepath.Join(dir, name+".model"))
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// captureMeta describes the ids-replay input next to capture.pcap: how much
// simulated time it covers and what each model concluded about it live.
type captureMeta struct {
	Seconds float64           `json:"seconds"`
	Records int               `json:"records"`
	Alerts  map[string]string `json:"alerts"`
}

func capturePath(dir string) string { return filepath.Join(dir, "capture.pcap") }

func captureMetaPath(dir string) string { return filepath.Join(dir, "capture.json") }

// replayModelSeed trains the detectors ids-replay deploys. The traffic they
// classify comes from the workload seed; the models do not, because how many
// flows a model flags is most of what the replay keeps on the heap, and
// models trained on ten different corpora moved the live heap by 19 % (the
// same models on ten different captures: 2 %).
const replayModelSeed = 1

// prepCapture generates the ids-replay input: train the reference models,
// then run the seed's paper10-shaped campaign with all three live on the
// tap while a pcap buffer records the same frames.
func prepCapture(seed int64, smoke bool, dir string, res *repResult) error {
	if err := prepModels(replayModelSeed, smoke, dir, res); err != nil {
		return err
	}
	bundles, err := loadBundles(dir)
	if err != nil {
		return err
	}
	c := paper10(wlIDSReplay, seed, smoke)
	c.CapturePath = capturePath(dir)
	live, err := runSim(c, bundles, nil)
	if err != nil {
		return err
	}
	res.Checks = append(res.Checks, live.Checks...)
	meta := captureMeta{Seconds: c.Measure.Seconds(), Records: int(live.Counters["capture.records"]), Alerts: live.Alerts}
	data, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return os.WriteFile(captureMetaPath(dir), data, 0o644)
}
