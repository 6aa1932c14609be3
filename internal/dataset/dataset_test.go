package dataset

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"ddoshield/internal/sim"
)

func sample(t *testing.T) *Dataset {
	t.Helper()
	d := New([]string{"a", "b"})
	for i := 0; i < 100; i++ {
		y := Benign
		if i%3 == 0 {
			y = Malicious
		}
		d.Add([]float64{float64(i), float64(i) * 2}, y)
	}
	return d
}

func TestSummarize(t *testing.T) {
	d := sample(t)
	s := d.Summarize()
	if s.Total != 100 || s.Malicious != 34 || s.Benign != 66 {
		t.Fatalf("summary = %+v", s)
	}
	if r := s.BalanceRatio(); math.Abs(r-34.0/66.0) > 1e-12 {
		t.Fatalf("BalanceRatio = %v", r)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestBalanceRatioDegenerate(t *testing.T) {
	d := New([]string{"a"})
	d.Add([]float64{1}, Benign)
	if d.Summarize().BalanceRatio() != 0 {
		t.Fatal("single-class balance should be 0")
	}
}

func TestSplit(t *testing.T) {
	d := sample(t)
	train, test := d.Split(0.8)
	if train.Len() != 80 || test.Len() != 20 {
		t.Fatalf("split = %d/%d", train.Len(), test.Len())
	}
	if train.NumFeatures() != 2 {
		t.Fatal("schema lost in split")
	}
	// Clamping.
	tr, te := d.Split(1.5)
	if tr.Len() != 100 || te.Len() != 0 {
		t.Fatal("clamp high failed")
	}
}

func TestShuffleDeterministic(t *testing.T) {
	d1, d2 := sample(t), sample(t)
	d1.Shuffle(sim.NewRNG(5))
	d2.Shuffle(sim.NewRNG(5))
	for i := range d1.Samples {
		if d1.Samples[i].X[0] != d2.Samples[i].X[0] {
			t.Fatal("same-seed shuffles differ")
		}
	}
}

func TestSubsample(t *testing.T) {
	d := sample(t)
	sub := d.Subsample(10, sim.NewRNG(1))
	if sub.Len() != 10 {
		t.Fatalf("subsample = %d", sub.Len())
	}
	seen := map[float64]bool{}
	for _, s := range sub.Samples {
		if seen[s.X[0]] {
			t.Fatal("subsample drew with replacement")
		}
		seen[s.X[0]] = true
	}
	all := d.Subsample(1000, sim.NewRNG(1))
	if all.Len() != 100 {
		t.Fatalf("oversized subsample = %d", all.Len())
	}
}

func TestXYViews(t *testing.T) {
	d := sample(t)
	xs, ys := d.XY()
	if len(xs) != 100 || len(ys) != 100 {
		t.Fatal("XY lengths")
	}
	if ys[0] != Malicious || ys[1] != Benign {
		t.Fatalf("labels = %v", ys[:4])
	}
}

func TestStandardScaler(t *testing.T) {
	d := New([]string{"a", "b", "const"})
	for i := 0; i < 1000; i++ {
		d.Add([]float64{float64(i), float64(i%10) * 100, 7}, Benign)
	}
	sc := FitStandard(d)
	sc.Apply(d)
	// After scaling: mean ~0, std ~1 per non-constant feature.
	for j := 0; j < 2; j++ {
		var mean, m2 float64
		for i := range d.Samples {
			mean += d.Samples[i].X[j]
		}
		mean /= float64(d.Len())
		for i := range d.Samples {
			dv := d.Samples[i].X[j] - mean
			m2 += dv * dv
		}
		std := math.Sqrt(m2 / float64(d.Len()))
		if math.Abs(mean) > 1e-9 || math.Abs(std-1) > 1e-9 {
			t.Fatalf("feature %d after scaling: mean=%v std=%v", j, mean, std)
		}
	}
	// Constant feature centered at 0, not NaN.
	if v := d.Samples[0].X[2]; v != 0 || math.IsNaN(v) {
		t.Fatalf("constant feature scaled to %v", v)
	}
}

func TestScalerTransformedCopies(t *testing.T) {
	d := New([]string{"a"})
	d.Add([]float64{10}, Benign)
	d.Add([]float64{20}, Benign)
	sc := FitStandard(d)
	x := []float64{15}
	out := sc.Transformed(x)
	if x[0] != 15 {
		t.Fatal("Transformed mutated input")
	}
	if out[0] != 0 { // 15 is the mean
		t.Fatalf("Transformed(mean) = %v", out[0])
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := sample(t)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() || got.NumFeatures() != d.NumFeatures() {
		t.Fatalf("round trip: %d/%d", got.Len(), got.NumFeatures())
	}
	for i := range d.Samples {
		if got.Samples[i].Y != d.Samples[i].Y {
			t.Fatalf("label %d mismatch", i)
		}
		for j := range d.Samples[i].X {
			if got.Samples[i].X[j] != d.Samples[i].X[j] {
				t.Fatalf("value (%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestCSVRejectsMalformed(t *testing.T) {
	cases := []string{
		"",
		"a,b\n1,2\n",            // header missing label column
		"a,label\n1,2,3\n",      // too many fields
		"a,label\nxx,1\n",       // bad float
		"a,label\n1.5,benign\n", // bad label
	}
	for _, c := range cases {
		if _, err := ReadCSV(bytes.NewReader([]byte(c))); err == nil {
			t.Fatalf("accepted malformed csv %q", c)
		}
	}
}

// Property: CSV round-trip preserves arbitrary float vectors exactly.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(vals []float64, label bool) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true // CSV schema excludes non-finite values
			}
		}
		names := make([]string, len(vals))
		for i := range names {
			names[i] = "f" + string(rune('a'+i%26))
		}
		d := New(names)
		y := Benign
		if label {
			y = Malicious
		}
		d.Add(vals, y)
		var buf bytes.Buffer
		if err := d.WriteCSV(&buf); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil || got.Len() != 1 || got.Samples[0].Y != y {
			return false
		}
		for j, v := range vals {
			if got.Samples[0].X[j] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
