// Command trainids trains the three detectors of the paper (Random Forest,
// K-Means, CNN) on a labeled dataset CSV produced by cmd/ddoshield, prints
// the offline evaluation metrics of §IV-D (accuracy, precision, recall,
// F1), and persists each trained model — the PKL-file phase of the paper's
// pipeline.
//
// Usage:
//
//	trainids -data dataset.csv -outdir models/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ddoshield/internal/dataset"
	"ddoshield/internal/experiments"
	"ddoshield/internal/ml/modelio"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "trainids:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dataPath = flag.String("data", "", "labeled dataset CSV (required)")
		outDir   = flag.String("outdir", ".", "directory for saved models")
		seed     = flag.Int64("seed", 42, "training seed")
		maxN     = flag.Int("maxsamples", 80000, "training subsample cap")
	)
	flag.Parse()
	if *dataPath == "" {
		return fmt.Errorf("-data is required")
	}
	if *maxN < 1 {
		return fmt.Errorf("-maxsamples must be at least 1 (got %d)", *maxN)
	}

	f, err := os.Open(*dataPath)
	if err != nil {
		return err
	}
	ds, err := dataset.ReadCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Println("dataset:", ds.Summarize())

	sc := experiments.Quick()
	sc.Seed = *seed
	sc.MaxTrainSamples = *maxN
	tr, err := sc.TrainModels(ds)
	if err != nil {
		return err
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	for _, tm := range tr.Models() {
		name := tm.Model.Name()
		fmt.Printf("%-8s %v (model %0.2f Kb)\n", name, tm.TrainReport, float64(tm.SizeBytes)/1024)
		path := filepath.Join(*outDir, name+".model")
		if err := modelio.SaveBundleFile(path, modelio.Bundle{Model: tm.Model, Scaler: tm.Scaler}); err != nil {
			return err
		}
		fmt.Printf("         saved to %s\n", path)
	}
	return nil
}
