// Package metrics computes the statistics the paper reports: per-request
// I/O time summaries (average, maximum, minimum, standard deviation — the
// three metrics of Figures 7–11), per-node served-data loads (the balance
// metric of Figures 1, 8 and 10), Jain's fairness index as an aggregate
// balance score, and simple traces for figure regeneration.
package metrics

import (
	"fmt"
	"math"
)

// Summary holds the distribution statistics of a sample.
type Summary struct {
	Count  int
	Sum    float64
	Mean   float64
	Min    float64
	Max    float64
	StdDev float64
}

// Summarize computes a Summary over xs. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	var s Summary
	if len(xs) == 0 {
		return s
	}
	s.Count = len(xs)
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.Count)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(s.Count))
	return s
}

// Spread is the max/min ratio the paper quotes ("the maximum I/O time is 9X
// that of the minimum"). It returns +Inf when Min is zero and the sample is
// non-empty.
func (s Summary) Spread() float64 {
	if s.Count == 0 {
		return 0
	}
	if s.Min == 0 {
		return math.Inf(1)
	}
	return s.Max / s.Min
}

// String renders the summary in bench-harness row format.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f max=%.3f sd=%.3f", s.Count, s.Mean, s.Min, s.Max, s.StdDev)
}

// JainIndex computes Jain's fairness index sum(x)^2 / (n*sum(x^2)): 1.0 for
// a perfectly balanced load vector, approaching 1/n as the load concentrates
// on one node.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1 // all zero: trivially balanced
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Point is one sample of a time series.
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series (e.g. per-read completion times in
// trace order, as plotted in Figures 7c, 9, 11 and 12).
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(t, v float64) { s.Points = append(s.Points, Point{T: t, V: v}) }

// Values extracts the V column.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// Downsample reduces the series to at most n points by striding, preserving
// the last point — enough fidelity for terminal plots of long traces.
func (s *Series) Downsample(n int) []Point {
	if n <= 0 || len(s.Points) <= n {
		return append([]Point(nil), s.Points...)
	}
	stride := float64(len(s.Points)) / float64(n)
	out := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.Points[int(float64(i)*stride)])
	}
	out[len(out)-1] = s.Points[len(s.Points)-1]
	return out
}
