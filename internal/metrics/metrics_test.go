package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Count != 4 || s.Sum != 10 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 4)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", s.StdDev, want)
	}
	if s.Spread() != 4 {
		t.Fatalf("spread = %v, want 4", s.Spread())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Spread() != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSpreadZeroMin(t *testing.T) {
	s := Summarize([]float64{0, 5})
	if !math.IsInf(s.Spread(), 1) {
		t.Fatalf("spread with zero min = %v, want +Inf", s.Spread())
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if p := Percentile(xs, 50); p != 3 {
		t.Fatalf("p50 = %v, want 3", p)
	}
	if p := Percentile(xs, 100); p != 5 {
		t.Fatalf("p100 = %v, want 5", p)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 = %v, want 1", p)
	}
}

func TestPercentilePanics(t *testing.T) {
	for i, fn := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestJainIndex(t *testing.T) {
	if j := JainIndex([]float64{10, 10, 10, 10}); math.Abs(j-1) > 1e-12 {
		t.Fatalf("balanced Jain = %v, want 1", j)
	}
	if j := JainIndex([]float64{40, 0, 0, 0}); math.Abs(j-0.25) > 1e-12 {
		t.Fatalf("concentrated Jain = %v, want 0.25", j)
	}
	if j := JainIndex([]float64{0, 0}); j != 1 {
		t.Fatalf("all-zero Jain = %v, want 1", j)
	}
	if j := JainIndex(nil); j != 0 {
		t.Fatalf("empty Jain = %v, want 0", j)
	}
}

func TestPropertyJainInRange(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(30))
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		j := JainIndex(xs)
		lo := 1/float64(len(xs)) - 1e-9
		return j >= lo && j <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesDownsample(t *testing.T) {
	var s Series
	for i := 0; i < 100; i++ {
		s.Add(float64(i), float64(i)*2)
	}
	ds := s.Downsample(10)
	if len(ds) != 10 {
		t.Fatalf("downsampled to %d, want 10", len(ds))
	}
	if ds[len(ds)-1] != s.Points[99] {
		t.Fatal("last point not preserved")
	}
	if got := s.Downsample(1000); len(got) != 100 {
		t.Fatalf("oversized downsample = %d points, want 100", len(got))
	}
	if vals := s.Values(); len(vals) != 100 || vals[3] != 6 {
		t.Fatal("Values extraction wrong")
	}
}

func TestPropertySummaryBounds(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(50))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		s := Summarize(xs)
		if s.Min > s.Mean || s.Mean > s.Max {
			return false
		}
		if s.StdDev < 0 || s.StdDev > s.Max-s.Min+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrapCI(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 10 + rng.NormFloat64()
	}
	lo, hi := BootstrapCI(xs, 2000, 0.95, 42)
	if lo >= hi {
		t.Fatalf("degenerate interval [%v,%v]", lo, hi)
	}
	// The true mean 10 should fall inside a 95% interval for this sample.
	if lo > 10.5 || hi < 9.5 {
		t.Fatalf("interval [%v,%v] implausibly far from 10", lo, hi)
	}
	// Wider confidence -> wider interval.
	lo99, hi99 := BootstrapCI(xs, 2000, 0.99, 42)
	if hi99-lo99 <= hi-lo {
		t.Fatalf("99%% interval [%v,%v] not wider than 95%% [%v,%v]", lo99, hi99, lo, hi)
	}
	// Deterministic given the seed.
	lo2, hi2 := BootstrapCI(xs, 2000, 0.95, 42)
	if lo2 != lo || hi2 != hi {
		t.Fatal("bootstrap not deterministic")
	}
}

func TestBootstrapCIPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { BootstrapCI(nil, 100, 0.95, 1) },
		func() { BootstrapCI([]float64{1}, 100, 0, 1) },
		func() { BootstrapCI([]float64{1}, 100, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}
