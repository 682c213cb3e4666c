// Package experiments regenerates every figure and quoted result of the
// Opass paper's evaluation (§III and §V), and the extensions beyond it, from
// the simulated substrate. Catalog (catalog.go) lists every study once; a
// study is a function from a Config to a Result that renders itself as rows
// comparable to the corresponding figure and, where the paper quotes a
// number, states its claims. harness.go is the one build-plan-run-summarise
// routine the single-job studies share. `opass bench`, `opass verify`,
// `opass report` and the root BenchmarkStudy are loops over the catalogue.
//
// The experiments follow the paper's configuration: one process per node,
// 3-way replication, 64 MB chunks, ten chunks per process for the
// microbenchmarks, cluster sizes 16–80 for the sweeps and 64 nodes for the
// traces. Scale can be reduced uniformly for quick runs via the Scale
// parameter on Config.
package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"opass/internal/core"
	"opass/internal/report"
	"opass/internal/workload"
)

// Config tunes experiment scale. The zero value reproduces the paper's
// setup.
type Config struct {
	// Seed drives all randomness.
	Seed int64
	// Scale divides cluster sizes (and hence chunk counts) by this factor;
	// 0 or 1 means full paper scale. Scale 4 turns the 64-node trace into a
	// 16-node trace, still large enough to show every effect.
	Scale int
}

// scale maps a paper cluster size through the divisor, never below 4 nodes.
func (c Config) scale(n int) int {
	if c.Scale <= 1 {
		return n
	}
	return max(4, n/c.Scale)
}

// Fig1Result is the motivating experiment: 64 nodes, 128 chunks, rank
// assignment — the served-chunk imbalance (Fig 1a) and the spread of
// per-read I/O times (Fig 1b).
type Fig1Result struct {
	Run StrategyResult
	// ChunksServed[node] counts chunks served by each node (Fig 1a's bars).
	ChunksServed []int
	// MaxChunks / IdleNodes quantify the skew the paper highlights
	// ("node-43 serves more than 6 chunks while some node serves none").
	MaxChunks int
	IdleNodes int
	// PredictedMax is the §III balls-in-bins expectation of the busiest
	// node's chunk count, for comparison with the observed MaxChunks.
	PredictedMax float64
	// PeakConcurrency is the deepest simultaneous read queue any disk saw —
	// the §III-B "compete for the hard disk head" depth.
	PeakConcurrency int
}

// Fig1 reproduces Figure 1.
func Fig1(cfg Config) (*Fig1Result, error) {
	nodes := cfg.scale(64)
	chunks := 2 * nodes // 128 chunks on 64 nodes: 2 per node ideally
	runs, err := runArms(arm{
		rig:  workload.SingleSpec{Nodes: nodes, ChunksPerProc: chunks / nodes, Seed: cfg.Seed}.Build,
		plan: core.RankStatic{},
	})
	if err != nil {
		return nil, err
	}
	out := &Fig1Result{Run: runs[0], ChunksServed: make([]int, nodes)}
	for _, rec := range out.Run.run.Records {
		out.ChunksServed[rec.SrcNode]++
	}
	for _, c := range out.ChunksServed {
		if c == 0 {
			out.IdleNodes++
		}
	}
	out.MaxChunks = slices.Max(out.ChunksServed)
	out.PeakConcurrency = slices.Max(out.Run.run.PeakConcurrentReads)
	out.PredictedMax = ExpectedMaxServed(LocalReadParams{
		Chunks: chunks, Replication: out.Run.rig.FS.Config().Replication, Nodes: nodes,
	})
	return out, nil
}

// Render prints the figure rows.
func (r *Fig1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1 — imbalanced parallel reads (rank assignment, %d nodes, %d chunks)\n",
		r.Run.Nodes, len(r.Run.IOTimes))
	fmt.Fprintf(&b, "(a) chunks served per node: ideal=%d max=%d (model predicts %.1f) idle-nodes=%d\n",
		len(r.Run.IOTimes)/r.Run.Nodes, r.MaxChunks, r.PredictedMax, r.IdleNodes)
	fmt.Fprintf(&b, "    per-node: %s\n", strings.Trim(fmt.Sprint(r.ChunksServed), "[]"))
	fmt.Fprintf(&b, "(b) I/O times: %s spread=%.1fx\n", r.Run.IO, r.Run.IO.Spread())
	fmt.Fprintf(&b, "    deepest disk queue: %d concurrent reads\n", r.PeakConcurrency)
	fmt.Fprintf(&b, "    local bytes: %.1f%%\n", 100*r.Run.Local)
	return b.String()
}

// Claims states Figure 1's point: rank assignment leaves hot and idle nodes.
func (r *Fig1Result) Claims() []Claim {
	ideal := len(r.Run.IOTimes) / r.Run.Nodes
	return []Claim{{
		Name:      "fig1-imbalance",
		Statement: "rank assignment produces hot and idle nodes",
		Holds:     r.MaxChunks > ideal && r.IdleNodes > 0,
		Detail:    fmt.Sprintf("max=%d (ideal %d), idle=%d", r.MaxChunks, ideal, r.IdleNodes),
		Rows: []ClaimRow{
			{"max chunks served by one node", ">6", fmt.Sprintf("%d (model: %.1f)", r.MaxChunks, r.PredictedMax)},
			{"idle nodes", `"some"`, fmt.Sprintf("%d", r.IdleNodes)},
			{"I/O time spread", `"vary greatly"`, fmt.Sprintf("%.1fx", r.Run.IO.Spread())},
		},
	}}
}

// SweepResult holds the cluster-size sweep of Figures 7 and 8, one row per
// cluster size.
type SweepResult struct {
	Rows []PairedRow[int]
}

// SingleDataSweep reproduces Figures 7(a,b) and 8(a,b): the per-chunk I/O
// time and per-node served-data statistics across cluster sizes, with and
// without Opass. Ten chunks per process, as in the paper.
func SingleDataSweep(cfg Config) (*SweepResult, error) {
	rows, err := sweepPaired([]int{16, 32, 48, 64, 80}, func(paper int) rigBuilder {
		return workload.SingleSpec{Nodes: cfg.scale(paper), ChunksPerProc: 10, Seed: cfg.Seed + int64(paper)}.Build
	}, core.SingleData{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &SweepResult{Rows: rows}, nil
}

// Render prints the sweep in the paper's avg/max/min format.
func (r *SweepResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7(a,b) — chunk I/O times vs cluster size (s)\n")
	fmt.Fprintf(&b, "%6s | %-30s | %-30s\n", "nodes", "without Opass (avg/min/max)", "with Opass (avg/min/max)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d | %9.2f %9.2f %9.2f | %9.2f %9.2f %9.2f\n",
			row.Baseline.Nodes,
			row.Baseline.IO.Mean, row.Baseline.IO.Min, row.Baseline.IO.Max,
			row.Opass.IO.Mean, row.Opass.IO.Min, row.Opass.IO.Max)
	}
	b.WriteString("\nFigure 8(a,b) — data served per node vs cluster size (MB)\n")
	fmt.Fprintf(&b, "%6s | %-30s | %-30s\n", "nodes", "without Opass (avg/min/max)", "with Opass (avg/min/max)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d | %9.0f %9.0f %9.0f | %9.0f %9.0f %9.0f\n",
			row.Baseline.Nodes,
			row.Baseline.Served.Mean, row.Baseline.Served.Min, row.Baseline.Served.Max,
			row.Opass.Served.Mean, row.Opass.Served.Min, row.Opass.Served.Max)
	}
	b.WriteString("\nlocality (bytes read locally)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d | %29.1f%% | %29.1f%%\n", row.Baseline.Nodes, 100*row.Baseline.Local, 100*row.Opass.Local)
	}
	return b.String()
}

// TraceResult holds a paired 64-node trace (Figures 7c+8c, 9+10, 11).
type TraceResult struct {
	Title string
	Pair
	claims []Claim
}

// Claims returns what the trace's study checks against the paper.
func (r *TraceResult) Claims() []Claim { return r.claims }

// Render prints the trace statistics and per-node service loads.
func (r *TraceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d nodes, %d reads)\n", r.Title, r.Baseline.Nodes, len(r.Baseline.IOTimes))
	fmt.Fprintf(&b, "  without Opass: %s local=%.1f%% makespan=%.1fs\n",
		r.Baseline.IO, 100*r.Baseline.Local, r.Baseline.Makespan)
	fmt.Fprintf(&b, "  with    Opass: %s local=%.1f%% makespan=%.1fs\n",
		r.Opass.IO, 100*r.Opass.Local, r.Opass.Makespan)
	fmt.Fprintf(&b, "  avg I/O improvement: %.2fx\n", r.AvgRatio())
	fmt.Fprintf(&b, "  served MB/node without: avg=%.0f min=%.0f max=%.0f jain=%.3f\n",
		r.Baseline.Served.Mean, r.Baseline.Served.Min, r.Baseline.Served.Max, r.Baseline.Fairness)
	fmt.Fprintf(&b, "  served MB/node with:    avg=%.0f min=%.0f max=%.0f jain=%.3f\n",
		r.Opass.Served.Mean, r.Opass.Served.Min, r.Opass.Served.Max, r.Opass.Fairness)
	fmt.Fprintf(&b, "  mean disk utilization:  %.0f%% without, %.0f%% with\n",
		100*r.Baseline.MeanDiskUtilization, 100*r.Opass.MeanDiskUtilization)
	return b.String()
}

// Plot draws both sides' per-operation I/O times (the paper's trace plots)
// and per-node served data.
func (r *TraceResult) Plot() string {
	var b strings.Builder
	b.WriteString(report.Trace("\nI/O time per operation, without Opass (s)", r.Baseline.IOTimes, 72, 10))
	b.WriteString(report.Trace("I/O time per operation, with Opass (s)", r.Opass.IOTimes, 72, 10))
	fmt.Fprintf(&b, "\ndata served per node (MB), without Opass:\n  %s\n", report.Sparkline(r.Baseline.ServedMB))
	fmt.Fprintf(&b, "data served per node (MB), with Opass:\n  %s\n", report.Sparkline(r.Opass.ServedMB))
	return b.String()
}

// Export writes both sides' per-read durations and per-node loads as CSV
// series named <name>_<side>_{io,served}.csv under dir.
func (r *TraceResult) Export(dir, name string) error {
	for _, side := range []struct {
		label string
		res   StrategyResult
	}{{"baseline", r.Baseline}, {"opass", r.Opass}} {
		xs := make([]float64, len(side.res.IOTimes))
		for i := range xs {
			xs[i] = float64(i)
		}
		var io, served bytes.Buffer
		if err := report.WriteSeriesCSV(&io, "op_index", xs, []string{"io_time_s"}, [][]float64{side.res.IOTimes}); err != nil {
			return err
		}
		if err := report.WriteNodeLoadCSV(&served, side.res.ServedMB); err != nil {
			return err
		}
		prefix := filepath.Join(dir, name+"_"+side.label)
		if err := os.WriteFile(prefix+"_io.csv", io.Bytes(), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(prefix+"_served.csv", served.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Fig7cTrace reproduces Figures 7(c) and 8(c): the 64-node, 640-chunk
// single-data trace under rank assignment vs Opass.
func Fig7cTrace(cfg Config) (*TraceResult, error) {
	pair, err := paired(
		workload.SingleSpec{Nodes: cfg.scale(64), ChunksPerProc: 10, Seed: cfg.Seed}.Build,
		core.SingleData{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	r := &TraceResult{Title: "Figures 7c/8c — parallel single-data access trace", Pair: pair}
	base, op := pair.Baseline, pair.Opass
	r.claims = []Claim{{
		Name:      "fig7c-single-data",
		Statement: "Opass cuts the average single-data I/O time >= 2x",
		Holds:     r.AvgRatio() >= 2 && op.Local >= 0.9,
		Detail:    fmt.Sprintf("improvement %.2fx, locality %.0f%%", r.AvgRatio(), 100*op.Local),
		Rows: []ClaimRow{
			{"avg I/O improvement", "~4x", fmt.Sprintf("%.2fx", r.AvgRatio())},
			{"remote data without Opass", ">90%", fmt.Sprintf("%.1f%%", 100*(1-base.Local))},
			{"Opass locality", "~100%", fmt.Sprintf("%.1f%%", 100*op.Local)},
		},
	}, {
		Name:      "fig8c-balance",
		Statement: "Opass balances data served across nodes",
		Holds:     op.Fairness > base.Fairness && op.Fairness > 0.99,
		Detail:    fmt.Sprintf("jain %.3f -> %.3f", base.Fairness, op.Fairness),
		Rows: []ClaimRow{
			{"served/node balance (Jain)", "—", fmt.Sprintf("%.3f → %.3f", base.Fairness, op.Fairness)},
		},
	}}
	return r, nil
}

// Fig9Trace reproduces Figures 9 and 10: multi-data tasks (30+20+10 MB
// inputs) under the default assignment vs Opass's Algorithm 1.
func Fig9Trace(cfg Config) (*TraceResult, error) {
	pair, err := paired(
		workload.MultiSpec{Nodes: cfg.scale(64), TasksPerProc: 10, Seed: cfg.Seed}.Build,
		core.MultiData{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	r := &TraceResult{Title: "Figures 9/10 — parallel multi-data access trace", Pair: pair}
	op := pair.Opass
	r.claims = []Claim{{
		Name:      "fig9-multi-data",
		Statement: "multi-data improvement exists but is partial",
		Holds:     r.AvgRatio() > 1.2 && op.Local < 0.95,
		Detail:    fmt.Sprintf("improvement %.2fx, locality %.0f%%", r.AvgRatio(), 100*op.Local),
		Rows: []ClaimRow{
			{"avg I/O improvement", "~2x", fmt.Sprintf("%.2fx", r.AvgRatio())},
			{"Opass locality (partial by design)", "—", fmt.Sprintf("%.1f%%", 100*op.Local)},
		},
	}}
	return r, nil
}

// Fig11Trace reproduces Figure 11: dynamic master/worker access with
// irregular task times — the default random master vs the Opass-guided
// master of §IV-D.
func Fig11Trace(cfg Config) (*TraceResult, error) {
	rig := workload.DynamicSpec{
		Nodes: cfg.scale(64), ChunksPerProc: 10, Seed: cfg.Seed,
		ComputeMean: 0.5, ComputeSigma: 1.0,
	}
	runs, err := runArms(
		arm{label: "random-dynamic", rig: rig.Build, source: randomMaster(cfg.Seed)},
		arm{label: "opass-dynamic", rig: rig.Build, plan: core.SingleData{Seed: cfg.Seed}, source: opassMaster},
	)
	if err != nil {
		return nil, err
	}
	r := &TraceResult{Title: "Figure 11 — dynamic data access trace", Pair: Pair{Baseline: runs[0], Opass: runs[1]}}
	r.claims = []Claim{{
		Name:      "fig11-dynamic",
		Statement: "Opass-guided master beats the random master",
		Holds:     r.AvgRatio() >= 1.5,
		Detail:    fmt.Sprintf("improvement %.2fx (paper 2.7x at 64 nodes)", r.AvgRatio()),
		Rows:      []ClaimRow{{"avg I/O improvement", "2.7x", fmt.Sprintf("%.2fx", r.AvgRatio())}},
	}}
	return r, nil
}
