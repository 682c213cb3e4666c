package experiments

import (
	"fmt"
	"strings"

	"opass/internal/core"
	"opass/internal/engine"
	"opass/internal/workload"
)

// SharedClusterResult quantifies §V-C1's shared-cluster caveat.
type SharedClusterResult struct {
	Nodes int
	// Alone is the Opass job with the cluster to itself; Shared is the same
	// job co-running with a locality-oblivious background job; Background
	// is that neighbor.
	Alone      StrategyResult
	Shared     StrategyResult
	Background StrategyResult
	// Slowdown is Shared.Makespan / Alone.Makespan.
	Slowdown float64
}

// SharedCluster reproduces the §V-C1 discussion: "clusters are usually
// shared by multiple applications. Thus, Opass may not greatly enhance the
// performance of parallel data requests due to the adjustment of HDFS.
// However, Opass allows the parallel data requests to be served in an
// optimized way as long as the cluster nodes have the capability to deliver
// data in the fashion of locality and balance." The experiment measures how
// much a co-running rank-assigned job erodes Opass's win — and that the
// Opass job still reads locally throughout.
func SharedCluster(cfg Config) (*SharedClusterResult, error) {
	nodes := cfg.scale(64)
	spec := workload.SingleSpec{Nodes: nodes, ChunksPerProc: 10, Seed: cfg.Seed}
	opass := core.SingleData{Seed: cfg.Seed}

	// Baseline: Opass alone.
	alone, err := runArms(arm{rig: spec.Build, plan: opass})
	if err != nil {
		return nil, err
	}

	// Shared: same Opass job plus an oblivious background job over a second
	// dataset on the same cluster.
	rig, err := spec.Build()
	if err != nil {
		return nil, err
	}
	if _, err := rig.FS.Create("/background", float64(nodes*10)*64); err != nil {
		return nil, err
	}
	probBG, err := core.SingleDataProblem(rig.FS, []string{"/background"}, rig.Prob.ProcNode)
	if err != nil {
		return nil, err
	}
	aFG, err := opass.Assign(rig.Prob)
	if err != nil {
		return nil, err
	}
	aBG, err := (core.RankStatic{}).Assign(probBG)
	if err != nil {
		return nil, err
	}
	results, err := engine.RunJobs(rig.Topo, rig.FS, []engine.JobSpec{
		{Problem: rig.Prob, Source: engine.NewListSource(aFG.Lists), Strategy: "opass"},
		{Problem: probBG, Source: engine.NewListSource(aBG.Lists), Strategy: "rank-background"},
	})
	if err != nil {
		return nil, err
	}
	out := &SharedClusterResult{
		Nodes:      nodes,
		Alone:      alone[0],
		Shared:     strategyResult(nodes, results[0]),
		Background: strategyResult(nodes, results[1]),
	}
	if out.Alone.Makespan > 0 {
		out.Slowdown = out.Shared.Makespan / out.Alone.Makespan
	}
	return out, nil
}

// Render prints the shared-cluster study.
func (r *SharedClusterResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — shared cluster (§V-C1): Opass job co-running with an oblivious job (%d nodes)\n", r.Nodes)
	fmt.Fprintf(&b, "  opass alone      : makespan %6.1fs  avg I/O %6.2fs  local %5.1f%%\n",
		r.Alone.Makespan, r.Alone.IO.Mean, 100*r.Alone.Local)
	fmt.Fprintf(&b, "  opass shared     : makespan %6.1fs  avg I/O %6.2fs  local %5.1f%%  (%.2fx slowdown)\n",
		r.Shared.Makespan, r.Shared.IO.Mean, 100*r.Shared.Local, r.Slowdown)
	fmt.Fprintf(&b, "  background (rank): makespan %6.1fs  avg I/O %6.2fs  local %5.1f%%\n",
		r.Background.Makespan, r.Background.IO.Mean, 100*r.Background.Local)
	b.WriteString("  the neighbor's remote reads erode the win, but Opass's requests stay local and balanced\n")
	return b.String()
}

// Headline is the study's line in opass report.
func (r *SharedClusterResult) Headline() string {
	return fmt.Sprintf("Shared cluster: a co-running oblivious job slows the Opass job %.2fx; its reads stay %.0f%% local.",
		r.Slowdown, 100*r.Shared.Local)
}
