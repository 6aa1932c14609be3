package forest

import (
	"testing"

	"ddoshield/internal/ml/mltest"
)

func TestForestLearnsBlobs(t *testing.T) {
	xs, ys := mltest.Blobs(600, 6, 3, 1)
	f, err := Train(Config{Trees: 20, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := mltest.Blobs(200, 6, 3, 2)
	if acc := mltest.Accuracy(f.Predict, testX, testY); acc < 0.95 {
		t.Fatalf("blob accuracy = %.3f", acc)
	}
}

func TestForestLearnsXOR(t *testing.T) {
	xs, ys := mltest.XOR(800, 3)
	f, err := Train(Config{Trees: 25, MaxDepth: 8, Seed: 2}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := mltest.XOR(300, 4)
	if acc := mltest.Accuracy(f.Predict, testX, testY); acc < 0.95 {
		t.Fatalf("XOR accuracy = %.3f (trees must beat linear boundary)", acc)
	}
}

func TestForestRejectsBadInput(t *testing.T) {
	if _, err := Train(Config{}, nil, nil); err == nil {
		t.Fatal("accepted empty training set")
	}
	if _, err := Train(Config{}, [][]float64{{1}}, []int{0, 1}); err == nil {
		t.Fatal("accepted mismatched labels")
	}
}

func TestForestDeterministic(t *testing.T) {
	xs, ys := mltest.Blobs(200, 4, 2, 5)
	f1, err := Train(Config{Trees: 5, Seed: 9}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Train(Config{Trees: 5, Seed: 9}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if f1.NumNodes() != f2.NumNodes() {
		t.Fatal("same-seed forests differ")
	}
	probe := make([]float64, 4)
	for i := 0; i < 4; i++ {
		probe[i] = 0.3
	}
	if f1.Predict(probe) != f2.Predict(probe) {
		t.Fatal("same-seed predictions differ")
	}
}

func TestMaxDepthRespected(t *testing.T) {
	xs, ys := mltest.XOR(500, 6)
	f, err := Train(Config{Trees: 3, MaxDepth: 4, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range f.TreeList {
		if d := tree.Depth(); d > 5 { // depth counts nodes: 4 splits + leaf
			t.Fatalf("tree depth %d exceeds max", d)
		}
	}
}

func TestPureNodeBecomesLeaf(t *testing.T) {
	// Single-class data: the tree must be a single leaf.
	xs := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	ys := []int{1, 1, 1, 1}
	f, err := Train(Config{Trees: 1, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.TreeList[0].Nodes) != 1 {
		t.Fatalf("pure tree has %d nodes", len(f.TreeList[0].Nodes))
	}
	if f.Predict([]float64{0, 0}) != 1 {
		t.Fatal("pure tree mispredicts")
	}
}

func TestMemoryBytesScalesWithNodes(t *testing.T) {
	xs, ys := mltest.Blobs(400, 4, 1, 7) // overlapping: bigger trees
	small, err := Train(Config{Trees: 2, MaxDepth: 3, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Train(Config{Trees: 40, MaxDepth: 12, Seed: 1}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if small.MemoryBytes() >= big.MemoryBytes() {
		t.Fatalf("memory: small=%d big=%d", small.MemoryBytes(), big.MemoryBytes())
	}
	if small.Name() != "rf" {
		t.Fatal("Name()")
	}
}

func TestPredictAllocFree(t *testing.T) {
	xs, ys := mltest.Blobs(300, 6, 3, 7)
	f, err := Train(Config{Trees: 10, Seed: 7}, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { f.Predict(xs[0]) }); a != 0 {
		t.Fatalf("Predict: %v allocs/op, want 0", a)
	}
	// More classes than the stack tally holds still vote correctly.
	wide, wideY := mltest.Blobs(600, 6, 12, 8)
	wf, err := Train(Config{Trees: 15, Classes: 12, Seed: 8}, wide, wideY)
	if err != nil {
		t.Fatal(err)
	}
	if acc := mltest.Accuracy(wf.Predict, wide, wideY); acc < 0.9 {
		t.Fatalf("12-class training accuracy = %.3f", acc)
	}
}
