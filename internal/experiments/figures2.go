package experiments

import (
	"fmt"
	"strings"
	"time"

	"opass/internal/bipartite"
	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/report"
	"opass/internal/workload"
)

// Fig3Result reproduces Figure 3 and the §III-A/§III-B quoted numbers.
type Fig3Result struct {
	// CDF[m][k] is P(X <= k) for each cluster size, k = 0..KMax.
	Sizes []int
	KMax  int
	// Quoted uses the 1/m convention matching the probabilities printed in
	// the paper (the §III-A formula as written has p = r/m).
	Quoted map[int][]float64
	// PGreater5 is the quoted-convention P(X>5) per cluster size.
	PGreater5 map[int]float64
	// NodesAtMost1 / NodesAtLeast8 are the §III-B expected node counts for
	// n=512, r=3, m=128.
	NodesAtMost1  float64
	NodesAtLeast8 float64
	// MonteCarlo cross-checks for m=128.
	MC MonteCarloResult
}

// Fig3 computes the §III analytical results with a Monte-Carlo
// cross-check.
func Fig3(cfg Config) (*Fig3Result, error) {
	sizes := []int{64, 128, 256, 512}
	const n, r, kMax = 512, 3, 20
	out := &Fig3Result{
		Sizes:     sizes,
		KMax:      kMax,
		Quoted:    map[int][]float64{},
		PGreater5: map[int]float64{},
	}
	for _, m := range sizes {
		p := LocalReadParams{Chunks: n, Replication: r, Nodes: m}
		q := make([]float64, kMax+1)
		for k := 0; k <= kMax; k++ {
			q[k] = LocalReadCDFQuoted(p, k)
		}
		out.Quoted[m] = q
		out.PGreater5[m] = 1 - q[5]
	}
	p128 := LocalReadParams{Chunks: n, Replication: r, Nodes: 128}
	out.NodesAtMost1 = ExpectedNodesServingAtMost(p128, 1)
	out.NodesAtLeast8 = ExpectedNodesServingAtLeast(p128, 8)
	out.MC = MonteCarlo(p128, 200, kMax, cfg.Seed)
	return out, nil
}

// paperPGreater5 is the §III-A table of P(X>5) as the paper prints it.
var paperPGreater5 = map[int]string{64: "81.09%", 128: "21.43%", 256: "1.64%", 512: "0.46%"}

// Render prints the Figure 3 CDF table and the quoted §III numbers.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3 — CDF of chunks read locally (n=512, r=3)\n")
	fmt.Fprintf(&b, "%4s", "k")
	for _, m := range r.Sizes {
		fmt.Fprintf(&b, "  m=%-6d", m)
	}
	b.WriteString("\n")
	for k := 0; k <= r.KMax; k += 2 {
		fmt.Fprintf(&b, "%4d", k)
		for _, m := range r.Sizes {
			fmt.Fprintf(&b, "  %8.4f", r.Quoted[m][k])
		}
		b.WriteString("\n")
	}
	b.WriteString("\n§III-A quoted probabilities, P(X>5):\n")
	for _, m := range r.Sizes {
		fmt.Fprintf(&b, "  m=%-4d measured %6.2f%%   paper %s\n", m, 100*r.PGreater5[m], paperPGreater5[m])
	}
	fmt.Fprintf(&b, "\n§III-B expected node counts (n=512, r=3, m=128):\n")
	fmt.Fprintf(&b, "  nodes serving <=1 chunk: %5.1f   paper: 11\n", r.NodesAtMost1)
	fmt.Fprintf(&b, "  nodes serving >=8 chunks: %4.1f   paper: 6\n", r.NodesAtLeast8)
	fmt.Fprintf(&b, "\nMonte-Carlo cross-check (m=128): mean chunks read locally %.2f (analytic %.2f)\n",
		r.MC.MeanLocal, 512.0*3/128)
	return b.String()
}

// Claims checks the §III-A probabilities and §III-B node counts the paper
// quotes.
func (r *Fig3Result) Claims() []Claim {
	decay := Claim{
		Name:      "sec3-locality-decay",
		Statement: "P(X>5) matches the paper's quoted probabilities",
		Holds:     r.PGreater5[128] > 0.20 && r.PGreater5[128] < 0.23,
		Detail:    fmt.Sprintf("P(X>5)|m=128 = %.4f (paper 0.2143)", r.PGreater5[128]),
	}
	for _, m := range []int{64, 128, 256} {
		decay.Rows = append(decay.Rows, ClaimRow{
			fmt.Sprintf("P(X>5), m=%d", m), paperPGreater5[m], fmt.Sprintf("%.2f%%", 100*r.PGreater5[m]),
		})
	}
	return []Claim{decay, {
		Name:      "sec3-node-counts",
		Statement: "expected node service counts match §III-B",
		Holds:     r.NodesAtMost1 > 9.5 && r.NodesAtMost1 < 13 && r.NodesAtLeast8 > 4.5 && r.NodesAtLeast8 < 8,
		Detail:    fmt.Sprintf("nodes<=1: %.1f (paper 11), nodes>=8: %.1f (paper 6)", r.NodesAtMost1, r.NodesAtLeast8),
		Rows: []ClaimRow{
			{"E[nodes serving ≤1 chunk] (m=128)", "11", fmt.Sprintf("%.1f", r.NodesAtMost1)},
			{"E[nodes serving ≥8 chunks] (m=128)", "6", fmt.Sprintf("%.1f", r.NodesAtLeast8)},
		},
	}}
}

// Plot draws the Figure 3 CDFs.
func (r *Fig3Result) Plot() string {
	names := make([]string, len(r.Sizes))
	series := make([][]float64, len(r.Sizes))
	for i, m := range r.Sizes {
		names[i] = fmt.Sprintf("m=%d", m)
		series[i] = r.Quoted[m]
	}
	return report.CDF("\nCDF of chunks read locally (k = 0..20)", names, series, 64, 12)
}

// Fig12Result holds the ParaView experiment.
type Fig12Result struct {
	Stock *workload.PipelineResult
	Opass *workload.PipelineResult
	// Call time summaries — the paper quotes mean 5.48 s (sd 1.339) stock
	// vs 3.07 s (sd 0.316) with Opass, totals 167 s vs 98 s.
	StockIO report.Stats
	OpassIO report.Stats
}

// Fig12 reproduces the §V-B ParaView experiment.
func Fig12(cfg Config) (*Fig12Result, error) {
	nodes := cfg.scale(64)
	blocks := 10 * nodes // 640 blocks at paper scale
	run := func(as core.Assigner) (*workload.PipelineResult, error) {
		topo := cluster.New(nodes, cluster.Marmot())
		fs := dfs.New(topo, dfs.Config{Seed: cfg.Seed})
		ds, err := workload.CreateMultiBlock(fs, "/protein", blocks, 56)
		if err != nil {
			return nil, err
		}
		c := workload.DefaultPipeline(as)
		c.BlocksPerStep = nodes // 64 datasets per rendering at paper scale
		return workload.RunPipeline(topo, fs, ds, c)
	}
	stock, err := run(core.RankStatic{})
	if err != nil {
		return nil, err
	}
	op, err := run(core.SingleData{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &Fig12Result{
		Stock:   stock,
		Opass:   op,
		StockIO: report.StatsOf(stock.CallTimes),
		OpassIO: report.StatsOf(op.CallTimes),
	}, nil
}

// Render prints the Figure 12 comparison.
func (r *Fig12Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 12 — ParaView vtkFileSeriesReader call times\n")
	fmt.Fprintf(&b, "  without Opass: mean=%.2fs sd=%.3f min=%.2fs max=%.2fs   (paper: 5.48s sd 1.339)\n",
		r.StockIO.Mean, r.StockIO.StdDev, r.StockIO.Min, r.StockIO.Max)
	fmt.Fprintf(&b, "  with    Opass: mean=%.2fs sd=%.3f min=%.2fs max=%.2fs   (paper: 3.07s sd 0.316)\n",
		r.OpassIO.Mean, r.OpassIO.StdDev, r.OpassIO.Min, r.OpassIO.Max)
	fmt.Fprintf(&b, "  total execution: %.0fs vs %.0fs with Opass   (paper: 167s vs 98s)\n",
		r.Stock.TotalSeconds, r.Opass.TotalSeconds)
	return b.String()
}

// Claims checks the §V-B call-time and total-execution numbers.
func (r *Fig12Result) Claims() []Claim {
	return []Claim{{
		Name:      "fig12-paraview",
		Statement: "ParaView call times drop in mean and deviation",
		Holds:     r.OpassIO.Mean < r.StockIO.Mean && r.OpassIO.StdDev < r.StockIO.StdDev,
		Detail: fmt.Sprintf("mean %.2fs->%.2fs, sd %.2f->%.2f",
			r.StockIO.Mean, r.OpassIO.Mean, r.StockIO.StdDev, r.OpassIO.StdDev),
		Rows: []ClaimRow{
			{"stock call time", "5.48s (sd 1.339)", fmt.Sprintf("%.2fs (sd %.3f)", r.StockIO.Mean, r.StockIO.StdDev)},
			{"Opass call time", "3.07s (sd 0.316)", fmt.Sprintf("%.2fs (sd %.3f)", r.OpassIO.Mean, r.OpassIO.StdDev)},
			{"total execution", "167s → 98s", fmt.Sprintf("%.0fs → %.0fs", r.Stock.TotalSeconds, r.Opass.TotalSeconds)},
		},
	}}
}

// Plot draws both pipelines' reader call times.
func (r *Fig12Result) Plot() string {
	return report.Trace("\nvtkFileSeriesReader call times, stock (s)", r.Stock.CallTimes, 72, 8) +
		report.Trace("vtkFileSeriesReader call times, with Opass (s)", r.Opass.CallTimes, 72, 8)
}

// OverheadResult quantifies §V-C1: the matching overhead relative to the
// data access it optimizes.
type OverheadResult struct {
	Nodes, Tasks   int
	PlannerWall    time.Duration
	SimulatedIO    float64 // total simulated read seconds moved by the job
	OverheadRatio  float64 // planner wall seconds / simulated I/O seconds
	LocalityGained float64
}

// Overhead measures the planner's wall-clock cost against the simulated
// I/O time of the job it plans, as §V-C1 does ("the overhead created by
// the matching method was less than 1% of the overhead involved with
// accessing the whole dataset").
func Overhead(cfg Config) (*OverheadResult, error) {
	runs, err := runArms(arm{
		rig:  workload.SingleSpec{Nodes: cfg.scale(64), ChunksPerProc: 10, Seed: cfg.Seed}.Build,
		plan: core.SingleData{Seed: cfg.Seed},
	})
	if err != nil {
		return nil, err
	}
	run := runs[0]
	out := &OverheadResult{
		Nodes:          run.Nodes,
		Tasks:          len(run.rig.Prob.Tasks),
		PlannerWall:    run.PlanWall,
		SimulatedIO:    run.IO.Sum,
		LocalityGained: run.Planned,
	}
	if out.SimulatedIO > 0 {
		out.OverheadRatio = run.PlanWall.Seconds() / out.SimulatedIO
	}
	return out, nil
}

// Render prints the overhead report.
func (r *OverheadResult) Render() string {
	return fmt.Sprintf("§V-C1 — planner overhead: %d procs x %d tasks: matching %.3f ms vs %.0f s of data access (%.4f%%, paper: <1%%)\n",
		r.Nodes, r.Tasks, float64(r.PlannerWall.Microseconds())/1000, r.SimulatedIO, 100*r.OverheadRatio)
}

// Claims checks §V-C1's "less than 1%".
func (r *OverheadResult) Claims() []Claim {
	return []Claim{{
		Name:      "overhead",
		Statement: "planning costs under 1% of the data access it saves",
		Holds:     r.OverheadRatio < 0.01,
		Detail:    fmt.Sprintf("ratio %.5f%%", 100*r.OverheadRatio),
		Rows: []ClaimRow{{
			"matching time / simulated data access time", "<1%",
			fmt.Sprintf("%.5f%% (%.3f ms / %.0f s)", 100*r.OverheadRatio, float64(r.PlannerWall.Microseconds())/1000, r.SimulatedIO),
		}},
	}}
}

// ScaleRow is one planner-scalability measurement.
type ScaleRow struct {
	Procs, Tasks int
	EKWall       time.Duration
	DinicWall    time.Duration
	MatcherWall  time.Duration
	Algorithm1   time.Duration
}

// ScaleResult is the planner-scalability sweep.
type ScaleResult struct {
	Rows []ScaleRow
}

// PlannerScale measures planner wall time across problem sizes (§V-C2 and
// the Edmonds-Karp vs Dinic ablation).
func PlannerScale(cfg Config) (*ScaleResult, error) {
	out := &ScaleResult{}
	for _, nodes := range []int{16, 32, 64, 128} {
		single, err := workload.SingleSpec{Nodes: nodes, ChunksPerProc: 10, Seed: cfg.Seed}.Build()
		if err != nil {
			return nil, err
		}
		multi, err := workload.MultiSpec{Nodes: nodes, TasksPerProc: 10, Seed: cfg.Seed}.Build()
		if err != nil {
			return nil, err
		}
		row := ScaleRow{Procs: nodes, Tasks: len(single.Prob.Tasks)}
		if _, row.EKWall, err = timePlan(core.SingleData{Algorithm: bipartite.EdmondsKarp, Seed: cfg.Seed}, single.Prob); err != nil {
			return nil, err
		}
		if _, row.DinicWall, err = timePlan(core.SingleData{Algorithm: bipartite.Dinic, Seed: cfg.Seed}, single.Prob); err != nil {
			return nil, err
		}
		if _, row.MatcherWall, err = timePlan(core.SingleData{Algorithm: bipartite.Kuhn, Seed: cfg.Seed}, single.Prob); err != nil {
			return nil, err
		}
		if _, row.Algorithm1, err = timePlan(core.MultiData{Seed: cfg.Seed}, multi.Prob); err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints planner scalability rows.
func (res *ScaleResult) Render() string {
	var b strings.Builder
	b.WriteString("§V-C2 — planner wall time vs problem size\n")
	fmt.Fprintf(&b, "%6s %7s %12s %12s %12s %12s\n", "procs", "tasks", "flow(EK)", "flow(Dinic)", "matcher", "algorithm1")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%6d %7d %12s %12s %12s %12s\n", r.Procs, r.Tasks, r.EKWall, r.DinicWall, r.MatcherWall, r.Algorithm1)
	}
	return b.String()
}

// PlacementAblation compares Opass on skewed placement (late-joining empty
// nodes) with and without running the balancer first — the §IV-B discussion
// of non-full matchings.
type PlacementAblation struct {
	// Skewed and Balanced carry the planner's achievable locality in each
	// layout as Planned.
	Skewed   StrategyResult
	Balanced StrategyResult
}

// AblationPlacement runs the placement-skew ablation.
func AblationPlacement(cfg Config) (*PlacementAblation, error) {
	nodes := cfg.scale(64)
	rig := workload.SkewedSpec{Nodes: nodes, LateNodes: nodes / 4, ChunksPerProc: 10, Seed: cfg.Seed}
	balanced := rig
	balanced.RunBalancer = true
	opass := core.SingleData{Seed: cfg.Seed}
	runs, err := runArms(
		arm{label: "opass", rig: rig.Build, plan: opass},
		arm{label: "opass", rig: balanced.Build, plan: opass},
	)
	if err != nil {
		return nil, err
	}
	return &PlacementAblation{Skewed: runs[0], Balanced: runs[1]}, nil
}

// Render prints the placement ablation.
func (r *PlacementAblation) Render() string {
	var b strings.Builder
	b.WriteString("Ablation — skewed placement (¼ of nodes joined after write)\n")
	fmt.Fprintf(&b, "  skewed:   planned locality %.1f%%, executed %.1f%%, makespan %.1fs, jain %.3f\n",
		100*r.Skewed.Planned, 100*r.Skewed.Local, r.Skewed.Makespan, r.Skewed.Fairness)
	fmt.Fprintf(&b, "  balanced: planned locality %.1f%%, executed %.1f%%, makespan %.1fs, jain %.3f\n",
		100*r.Balanced.Planned, 100*r.Balanced.Local, r.Balanced.Makespan, r.Balanced.Fairness)
	return b.String()
}
