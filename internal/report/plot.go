package report

// The ASCII charts: trace scatter plots (Figures 7c, 9, 11, 12 are
// I/O-time-per-operation traces), CDF step plots (Figure 3) and one-line
// sparklines for per-node loads (Figures 1a, 8c). Terminal output keeps the
// figure regeneration dependency-free while still making the shapes visible
// at a glance.

import (
	"fmt"
	"math"
	"strings"
)

// Trace renders ys as a height x width scatter/line chart with a y-axis
// legend, in trace order (x = operation index). It is the Figure 7c style:
// one mark per operation, so contention bursts appear as vertical streaks.
func Trace(title string, ys []float64, width, height int) string {
	if width < 8 {
		width = 8
	}
	if height < 2 {
		height = 2
	}
	if len(ys) == 0 {
		return title + "\n(no data)\n"
	}
	lo, hi := bounds(ys)
	if hi-lo < 1e-6*math.Max(1, math.Abs(hi)) {
		// Near-constant series: widen the range so floating-point noise
		// does not scatter marks across rows.
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for i, y := range ys {
		c := i * width / len(ys)
		if c >= width {
			c = width - 1
		}
		r := rowOf(y, lo, hi, height)
		grid[r][c] = '*'
	}
	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	for r := 0; r < height; r++ {
		label := ""
		switch r {
		case 0:
			label = fmt.Sprintf("%8.2f", hi)
		case height - 1:
			label = fmt.Sprintf("%8.2f", lo)
		default:
			label = strings.Repeat(" ", 8)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, grid[r])
	}
	fmt.Fprintf(&b, "%s +%s+\n", strings.Repeat(" ", 8), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s 0%sops=%d\n", strings.Repeat(" ", 8), strings.Repeat(" ", max(1, width-4-digits(len(ys)))), len(ys))
	return b.String()
}

// CDF renders step functions (Figure 3 style): one line per named series,
// sampled at each integer k in [0, len(series)-1].
func CDF(title string, names []string, series [][]float64, width, height int) string {
	if len(names) != len(series) {
		panic(fmt.Sprintf("report: %d names for %d series", len(names), len(series)))
	}
	if width < 8 {
		width = 8
	}
	if height < 2 {
		height = 2
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	marks := "abcdefghij"
	for si, ys := range series {
		if len(ys) == 0 {
			continue
		}
		m := marks[si%len(marks)]
		for i, y := range ys {
			c := i * width / len(ys)
			if c >= width {
				c = width - 1
			}
			if y < 0 {
				y = 0
			}
			if y > 1 {
				y = 1
			}
			r := rowOf(y, 0, 1, height)
			grid[r][c] = m
		}
	}
	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	for r := 0; r < height; r++ {
		label := strings.Repeat(" ", 4)
		switch r {
		case 0:
			label = " 1.0"
		case height - 1:
			label = " 0.0"
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, grid[r])
	}
	fmt.Fprintf(&b, "%s +%s+\n", strings.Repeat(" ", 4), strings.Repeat("-", width))
	for si, name := range names {
		fmt.Fprintf(&b, "     %c = %s\n", marks[si%len(marks)], name)
	}
	return b.String()
}

// Sparkline renders values as a one-line block-character sparkline.
func Sparkline(ys []float64) string {
	if len(ys) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := bounds(ys)
	var b strings.Builder
	for _, y := range ys {
		i := 0
		if hi > lo {
			i = int((y - lo) / (hi - lo) * float64(len(blocks)-1))
		}
		if i < 0 {
			i = 0
		}
		if i >= len(blocks) {
			i = len(blocks) - 1
		}
		b.WriteRune(blocks[i])
	}
	return b.String()
}

func rowOf(y, lo, hi float64, height int) int {
	frac := (y - lo) / (hi - lo)
	r := int(math.Round((1 - frac) * float64(height-1)))
	if r < 0 {
		r = 0
	}
	if r >= height {
		r = height - 1
	}
	return r
}

func bounds(ys []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, y := range ys {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	return lo, hi
}

func digits(n int) int {
	d := 1
	for n >= 10 {
		n /= 10
		d++
	}
	return d
}
