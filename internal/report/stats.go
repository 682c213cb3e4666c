package report

import (
	"fmt"
	"math"
)

// Stats holds the distribution statistics of a sample: the average,
// maximum, minimum and standard deviation the paper reports for per-request
// I/O times (Figures 7–11) and per-node served data (Figures 1, 8 and 10).
type Stats struct {
	Count  int
	Sum    float64
	Mean   float64
	Min    float64
	Max    float64
	StdDev float64
}

// StatsOf computes the Stats of xs. An empty sample yields a zero Stats.
func StatsOf(xs []float64) Stats {
	return statsOver(len(xs), func(i int) float64 { return xs[i] })
}

// statsOver is StatsOf over the n-sample x(0), …, x(n-1), read twice, so a
// sample derived from other data needs no array of its own.
func statsOver(n int, x func(i int) float64) Stats {
	var s Stats
	if n == 0 {
		return s
	}
	s.Count = n
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	for i := range n {
		v := x(i)
		s.Sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = s.Sum / float64(s.Count)
	var ss float64
	for i := range n {
		d := x(i) - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(s.Count))
	return s
}

// Spread is the max/min ratio the paper quotes ("the maximum I/O time is 9X
// that of the minimum"). It returns +Inf when Min is zero and the sample is
// non-empty.
func (s Stats) Spread() float64 {
	if s.Count == 0 {
		return 0
	}
	if s.Min == 0 {
		return math.Inf(1)
	}
	return s.Max / s.Min
}

// String renders the summary in bench-harness row format.
func (s Stats) String() string {
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
