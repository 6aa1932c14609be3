// Package report renders experiment series as terminal graphics: unicode
// sparklines and aligned ASCII tables, so cmd/benchtables can show the
// paper's figures (per-second accuracy dips, throughput under attack,
// connected-bots population) directly in the terminal next to their CSV.
package report

import (
	"math"
	"strings"
)

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders vals as one line of unicode block characters, scaled
// between lo and hi. Pass lo==hi to auto-scale to the data range.
func Sparkline(vals []float64, lo, hi float64) string {
	if len(vals) == 0 {
		return ""
	}
	if lo == hi {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if lo == hi { // constant series
			hi = lo + 1
		}
	}
	var b strings.Builder
	span := hi - lo
	for _, v := range vals {
		t := (v - lo) / span
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
		idx := int(t * float64(len(sparkLevels)-1))
		b.WriteRune(sparkLevels[idx])
	}
	return b.String()
}

// Downsample reduces vals to at most width points by bucket-averaging, so
// long series fit a terminal row.
func Downsample(vals []float64, width int) []float64 {
	if width <= 0 || len(vals) <= width {
		out := make([]float64, len(vals))
		copy(out, vals)
		return out
	}
	out := make([]float64, width)
	for i := 0; i < width; i++ {
		lo := i * len(vals) / width
		hi := (i + 1) * len(vals) / width
		if hi <= lo {
			hi = lo + 1
		}
		var s float64
		for _, v := range vals[lo:hi] {
			s += v
		}
		out[i] = s / float64(hi-lo)
	}
	return out
}

// Table renders an aligned ASCII table: a header row, a rule, then the data
// rows. Column widths fit the widest cell; numeric formatting is the
// caller's job. Used for the fault-counter and resilience-degradation
// tables next to the paper's Table I/II renderings.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len([]rune(h))
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len([]rune(cell)) > widths[i] {
				widths[i] = len([]rune(cell))
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, w := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", w-len([]rune(cell))))
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
