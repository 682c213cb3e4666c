package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// loadBounds reads each end-to-end metric's bound — the share of the first
// set's median by which the second may be worse — from BENCHMARK.json in the
// current directory, where the benchmark's contract keeps them.
func loadBounds() (map[string]float64, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := map[string]float64{"failed_frac": 0} // absolute: failures may not grow at all
	for _, m := range doc.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

func loadResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives; 0 for fewer than two values.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	quartile := func(i int) float64 {
		pos := i * (len(s) + 1)
		j := min(max(pos/4, 1), len(s)-1)
		delta := float64(pos - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / med
}

// judge compares one end-to-end metric of one workload across two sets.
// "worse": the second median is worse than the first by more than the bound.
// "unresolved": "worse" and "unchanged" cannot be told apart — the runs of a
// set spread wider than the bound and not every run of the second set reads
// better than every run of the first, or the median is worse but the host was
// noisy while it was measured.
func judge(m metricDef, bound float64, a, b []float64, noisy bool) (verdict string, change float64) {
	worseBy := func(x, y float64) float64 { // how much worse y is than x
		if m.Better == "higher" {
			return x - y
		}
		return y - x
	}
	medA := median(a)
	change = worseBy(medA, median(b))
	limit := 0.0
	if m.Name != "failed_frac" {
		if medA != 0 {
			change /= medA
		}
		limit = bound
	}
	if quartileSpread(a) > bound || quartileSpread(b) > bound {
		for _, x := range a {
			for _, y := range b {
				if worseBy(x, y) >= 0 {
					return "unresolved", change
				}
			}
		}
		return "ok", change
	}
	switch {
	case change <= limit:
		return "ok", change
	case noisy:
		return "unresolved", change
	default:
		return "worse", change
	}
}

// compareFiles prints one row per (workload, end-to-end metric) and checks
// that the seed-determined counts are identical. It returns 1 when a metric
// is worse or a count differs.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	bounds, err := loadBounds()
	var a, b *resultSet
	if err == nil {
		a, err = loadResultSet(pathA)
	}
	if err == nil {
		b, err = loadResultSet(pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	bad := false
	fmt.Fprintf(stdout, "%-16s %-18s %13s %13s %9s %7s  %s\n", "workload", "metric", "first", "second", "worse by", "bound", "verdict")
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		j := slices.IndexFunc(b.Workloads, func(w workloadResult) bool { return w.Name == wa.Name })
		if j < 0 {
			continue
		}
		wb := &b.Workloads[j]
		noisy := slices.ContainsFunc(slices.Concat(wa.Runs, wb.Runs), func(r *runResult) bool { return r.Noisy })
		for _, m := range endToEnd {
			va, vb := wa.values(endToEndOf, m.Name), wb.values(endToEndOf, m.Name)
			verdict, change := judge(m, bounds[m.Name], va, vb, noisy)
			bad = bad || verdict == "worse"
			fmt.Fprintf(stdout, "%-16s %-18s %13.6g %13.6g %+8.2f%% %6.2f%%  %s\n",
				wa.Name, m.Name, median(va), median(vb), change*100, bounds[m.Name]*100, verdict)
		}
		for _, diff := range countDiffs(wa, wb) {
			bad = true
			fmt.Fprintf(stdout, "%-16s %s\n", wa.Name, diff)
		}
	}
	if bad {
		fmt.Fprintln(stdout, "FAIL: a metric is worse than its bound, or a seed-determined count differs")
		return 1
	}
	fmt.Fprintln(stdout, "PASS: no metric worse than its bound; seed-determined counts identical")
	return 0
}

// countDiffs lists the seed-determined values that differ between runs of the
// same seed that sent the same number of requests (a time-bounded loop sends
// a varying number, which moves the cache counts and the locality mean).
func countDiffs(a, b *workloadResult) []string {
	var out []string
	for i := 0; i < min(len(a.Runs), len(b.Runs)); i++ {
		ra, rb := a.Runs[i], b.Runs[i]
		if ra.Seed != rb.Seed || ra.Attempted != rb.Attempted {
			continue
		}
		if x, y := ra.EndToEnd["locality_frac"], rb.EndToEnd["locality_frac"]; x != y {
			out = append(out, fmt.Sprintf("seed %d: locality_frac %v != %v", ra.Seed, x, y))
		}
		if ra.PerLayer == nil || rb.PerLayer == nil {
			continue
		}
		for _, m := range perLayer {
			if x, y := ra.PerLayer[m.Name], rb.PerLayer[m.Name]; m.Exact && x != y {
				out = append(out, fmt.Sprintf("seed %d: %s %v != %v", ra.Seed, m.Name, x, y))
			}
		}
	}
	return out
}
