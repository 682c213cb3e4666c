package report

import (
	"strings"
	"testing"
)

func TestTraceBasicShape(t *testing.T) {
	ys := []float64{1, 2, 3, 4, 5, 4, 3, 2, 1}
	out := Trace("title", ys, 20, 5)
	if !strings.HasPrefix(out, "title\n") {
		t.Fatal("missing title")
	}
	lines := strings.Split(out, "\n")
	// title + 5 rows + axis + footer + trailing empty
	if len(lines) != 9 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.Contains(lines[1], "5.00") {
		t.Fatalf("top label missing max: %q", lines[1])
	}
	if !strings.Contains(lines[5], "1.00") {
		t.Fatalf("bottom label missing min: %q", lines[5])
	}
	if !strings.Contains(out, "*") {
		t.Fatal("no marks plotted")
	}
	if !strings.Contains(out, "ops=9") {
		t.Fatal("missing ops count")
	}
}

func TestTraceEmptyAndConstant(t *testing.T) {
	if out := Trace("t", nil, 10, 4); !strings.Contains(out, "no data") {
		t.Fatalf("empty trace: %q", out)
	}
	out := Trace("t", []float64{2, 2, 2}, 10, 4)
	if !strings.Contains(out, "*") {
		t.Fatal("constant series should still plot")
	}
}

func TestTraceClampsTinyDimensions(t *testing.T) {
	out := Trace("t", []float64{1, 2}, 1, 1)
	if out == "" {
		t.Fatal("degenerate dimensions must still render")
	}
}

func TestCDF(t *testing.T) {
	s1 := []float64{0, 0.5, 1}
	s2 := []float64{0, 0.2, 0.4}
	out := CDF("cdf", []string{"m=64", "m=128"}, [][]float64{s1, s2}, 20, 6)
	if !strings.Contains(out, "a = m=64") || !strings.Contains(out, "b = m=128") {
		t.Fatalf("legend missing: %q", out)
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Fatal("marks missing")
	}
	if !strings.Contains(out, " 1.0") || !strings.Contains(out, " 0.0") {
		t.Fatal("axis labels missing")
	}
}

func TestCDFClampsOutOfRange(t *testing.T) {
	out := CDF("c", []string{"x"}, [][]float64{{-0.5, 2.0}}, 10, 4)
	if out == "" {
		t.Fatal("out-of-range values must clamp, not vanish")
	}
}

func TestCDFPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CDF("c", []string{"one"}, nil, 10, 4)
}

func TestSparkline(t *testing.T) {
	out := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(out)) != 4 {
		t.Fatalf("sparkline length %d, want 4", len([]rune(out)))
	}
	runes := []rune(out)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Fatalf("sparkline extremes wrong: %q", out)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline must be empty")
	}
	if got := Sparkline([]float64{5, 5}); []rune(got)[0] != '▁' {
		t.Fatalf("constant sparkline: %q", got)
	}
}
