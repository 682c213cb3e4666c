package report

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := StatsOf([]float64{1, 2, 3, 4})
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
	s := StatsOf(nil)
	if s.Count != 0 || s.Spread() != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSpreadZeroMin(t *testing.T) {
	s := StatsOf([]float64{0, 5})
	if !math.IsInf(s.Spread(), 1) {
		t.Fatalf("spread with zero min = %v, want +Inf", s.Spread())
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

func TestPropertySummaryBounds(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(50))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		s := StatsOf(xs)
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
