package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestQuickTablesPinned runs the Quick preset at seed 42 end to end —
// dataset generation, offline training, the real-time detection run — and
// pins the bytes of what cmd/benchtables prints from it: the §IV-D dataset
// summary, the three offline TrainReports, the Table I block with every
// row's worst window, and the detection-latency table.
//
// The pins are a refactor oracle, not a statement that the figures are
// right. Table I's CNN row has drifted from the paper's ~95 % to ~72.5 %
// (ROADMAP item 13); these hashes record today's drifted figure so that a
// change meant to keep the experiments path's behaviour can prove it did.
// A change that fixes the drift re-records them and says why. The detection
// pin was re-recorded when detection latency began to count from the C2's
// first attack order instead of the first traced attack origin, which fell
// in the infection lead's telnet scanning: the rows went from 1m34.9s /
// 1m19.9s / 1m49.9s to 16s / 1s / 31s.
func TestQuickTablesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("the Quick pipeline is tens of seconds")
	}
	sc := Quick()
	ds, err := sc.GenerateDataset()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sc.TrainModels(ds)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := sc.RunRealTime(tr)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{
		"dataset":   ds.Summarize().String(),
		"table1":    FormatTable1(rt.Table1),
		"detection": FormatDetection(rt.Detection),
	}
	for _, tm := range tr.Models() {
		got["train/"+tm.Model.Name()] = tm.TrainReport.String()
	}
	for _, r := range rt.Table1 {
		got["min/"+r.Model] = fmt.Sprintf("%.17g", r.MinAccuracy)
	}
	want := map[string]string{
		"dataset":      "ecde17360d1227fd",
		"train/rf":     "d48d02c82b064d12",
		"train/kmeans": "bfea6e6fe4cec2f2",
		"train/cnn":    "10f26f87a4bb2153",
		"table1":       "7e0f59e9b4775753",
		"min/rf":       "90215827a0140532",
		"min/kmeans":   "5abdacf0d613dada",
		"min/cnn":      "b7a70c9f0b608d5f",
		"detection":    "21b494fc249970fd",
	}
	if len(got) != len(want) {
		t.Fatalf("pinned %d artifacts, produced %d", len(want), len(got))
	}
	for name, w := range want {
		if h := tableHash(got[name]); h != w {
			t.Errorf("%s hash = %s, want %s\n%s", name, h, w, got[name])
		}
	}
}

// tableHash is the first 16 hex digits of the SHA-256 of s.
func tableHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])[:16]
}
