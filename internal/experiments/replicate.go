package experiments

import (
	"fmt"
	"strings"

	"opass/internal/report"
)

// ReplicatedTrace aggregates a trace experiment over several seeds — the
// paper's "we run the tests 5 times" practice, which separates the
// qualitative shape from single-placement luck.
type ReplicatedTrace struct {
	Title string
	Runs  []*TraceResult
	// Ratios are the per-seed improvement factors (baseline avg I/O / Opass
	// avg I/O); Ratio summarizes them.
	Ratios []float64
	Ratio  report.Stats
	// Locality means across seeds.
	BaselineLocalMean float64
	OpassLocalMean    float64
}

// Replicate runs a trace study n times with seeds cfg.Seed, cfg.Seed+1, ...
// and aggregates the headline metrics.
func Replicate(st Study, cfg Config, n int) (*ReplicatedTrace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiments: replication count %d must be positive", n)
	}
	out := &ReplicatedTrace{}
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		res, err := st.Run(c)
		if err != nil {
			return nil, fmt.Errorf("experiments: replication %d: %w", i, err)
		}
		r, ok := res.(*TraceResult)
		if !ok {
			return nil, fmt.Errorf("experiments: %s is not a paired trace; only those replicate", st.Name)
		}
		if out.Title == "" {
			out.Title = r.Title
		}
		out.Runs = append(out.Runs, r)
		out.Ratios = append(out.Ratios, r.AvgRatio())
		out.BaselineLocalMean += r.Baseline.Local
		out.OpassLocalMean += r.Opass.Local
	}
	out.Ratio = report.StatsOf(out.Ratios)
	out.BaselineLocalMean /= float64(n)
	out.OpassLocalMean /= float64(n)
	return out, nil
}

// Render prints the replicated summary.
func (r *ReplicatedTrace) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %d seeds\n", r.Title, len(r.Runs))
	fmt.Fprintf(&b, "  avg I/O improvement: %.2fx ± %.2f (per seed:", r.Ratio.Mean, r.Ratio.StdDev)
	for _, ratio := range r.Ratios {
		fmt.Fprintf(&b, " %.2f", ratio)
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "  locality: baseline %.1f%%, opass %.1f%% (means)\n",
		100*r.BaselineLocalMean, 100*r.OpassLocalMean)
	return b.String()
}
