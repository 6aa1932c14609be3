package report

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestSparklineShape(t *testing.T) {
	got := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 0, 7)
	if got != "▁▂▃▄▅▆▇█" {
		t.Fatalf("sparkline = %q", got)
	}
}

func TestSparklineAutoScale(t *testing.T) {
	got := Sparkline([]float64{10, 20, 10}, 0, 0)
	if utf8.RuneCountInString(got) != 3 {
		t.Fatalf("length = %q", got)
	}
	runes := []rune(got)
	if runes[0] != '▁' || runes[1] != '█' {
		t.Fatalf("auto-scaled = %q", got)
	}
}

func TestSparklineConstantSeries(t *testing.T) {
	got := Sparkline([]float64{5, 5, 5}, 0, 0)
	if utf8.RuneCountInString(got) != 3 {
		t.Fatalf("constant series = %q", got)
	}
}

func TestSparklineEmpty(t *testing.T) {
	if Sparkline(nil, 0, 1) != "" {
		t.Fatal("empty series should render empty")
	}
}

func TestSparklineClamping(t *testing.T) {
	got := []rune(Sparkline([]float64{-100, 100}, 0, 1))
	if got[0] != '▁' || got[1] != '█' {
		t.Fatalf("clamping = %q", string(got))
	}
}

func TestDownsample(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	out := Downsample(vals, 10)
	if len(out) != 10 {
		t.Fatalf("length = %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			t.Fatal("downsampled means not increasing on a ramp")
		}
	}
	// No-op cases.
	if got := Downsample(vals[:5], 10); len(got) != 5 {
		t.Fatalf("short series resized: %d", len(got))
	}
}

// Property: downsampling preserves the value range envelope.
func TestDownsampleBoundsProperty(t *testing.T) {
	f := func(raw []float64, w uint8) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if v == v && v > -1e12 && v < 1e12 { // finite, bounded
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		width := int(w%32) + 1
		out := Downsample(vals, width)
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		for _, v := range out {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableAlignment(t *testing.T) {
	got := Table([]string{"a", "long"}, [][]string{{"xx", "y"}, {"z", "wwwww"}})
	want := "a  | long \n" +
		"---+------\n" +
		"xx | y    \n" +
		"z  | wwwww\n"
	if got != want {
		t.Fatalf("table:\n%q\nwant:\n%q", got, want)
	}
}

func TestTableRaggedRows(t *testing.T) {
	got := Table([]string{"k", "v"}, [][]string{{"only-key"}})
	if !strings.Contains(got, "only-key | ") {
		t.Fatalf("ragged row mis-rendered: %q", got)
	}
}
