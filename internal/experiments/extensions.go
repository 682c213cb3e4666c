package experiments

import (
	"fmt"
	"strings"

	"opass/internal/core"
	"opass/internal/engine"
	"opass/internal/workload"
)

// This file holds the extension experiments beyond the paper's figures:
// the related-work comparison against delay scheduling (§VI), the
// and the heterogeneous-environment static-vs-dynamic study that motivates
// §IV-D.

// DynamicStrategiesResult compares three masters on the same workload.
type DynamicStrategiesResult struct {
	Random StrategyResult
	Delay  StrategyResult
	Opass  StrategyResult
	// MaxSkips is the delay-scheduling D parameter used.
	MaxSkips int
}

// DynamicStrategies runs the dynamic workload of Figure 11 under the
// random master, delay scheduling, and Opass's §IV-D scheduler.
func DynamicStrategies(cfg Config) (*DynamicStrategiesResult, error) {
	const maxSkips = 3
	rig := workload.DynamicSpec{
		Nodes: cfg.scale(64), ChunksPerProc: 10, Seed: cfg.Seed,
		ComputeMean: 0.5, ComputeSigma: 1.0,
	}
	delayMaster := func(rig *workload.Rig, _ *core.Assignment) (engine.TaskSource, error) {
		return engine.NewDelayDispatcher(rig.Prob, maxSkips), nil
	}
	runs, err := runArms(
		arm{label: "random-dynamic", rig: rig.Build, source: randomMaster(cfg.Seed)},
		arm{label: "delay-scheduling", rig: rig.Build, source: delayMaster},
		arm{label: "opass-dynamic", rig: rig.Build, plan: core.SingleData{Seed: cfg.Seed}, source: opassMaster},
	)
	if err != nil {
		return nil, err
	}
	return &DynamicStrategiesResult{Random: runs[0], Delay: runs[1], Opass: runs[2], MaxSkips: maxSkips}, nil
}

// Render prints the three-way comparison.
func (r *DynamicStrategiesResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — dynamic masters compared (%d nodes, delay D=%d)\n", r.Random.Nodes, r.MaxSkips)
	fmt.Fprintf(&b, "%-18s %10s %10s %10s %10s\n", "master", "avg I/O(s)", "max I/O(s)", "local", "makespan")
	for _, s := range []StrategyResult{r.Random, r.Delay, r.Opass} {
		fmt.Fprintf(&b, "%-18s %10.3f %10.3f %9.1f%% %9.1fs\n",
			s.Strategy, s.IO.Mean, s.IO.Max, 100*s.Local, s.Makespan)
	}
	return b.String()
}

// HeteroResult compares static equal lists, capacity-weighted static
// lists, and dynamic dispatch on a heterogeneous cluster.
type HeteroResult struct {
	Static   StrategyResult
	Weighted StrategyResult
	Dynamic  StrategyResult
	// SlowNodes is how many nodes compute at SlowFactor speed.
	SlowNodes  int
	SlowFactor float64
}

// HeteroStaticVsDynamic reproduces the motivation of §IV-D: on a cluster
// where a quarter of the nodes compute 3x slower, a static equal split
// strands work on the slow nodes, while Opass's dynamic scheduler lets fast
// workers steal — without giving up locality for the tasks that stay put.
func HeteroStaticVsDynamic(cfg Config) (*HeteroResult, error) {
	nodes := cfg.scale(64)
	slow := nodes / 4
	const slowFactor = 3.0
	factor := func(proc int) float64 {
		if proc < slow {
			return slowFactor
		}
		return 1
	}
	// "Load capacity" weights: a node that computes 3x slower receives a
	// third of the share.
	weights := make([]float64, nodes)
	for i := range weights {
		weights[i] = 1 / factor(i)
	}
	rig := workload.DynamicSpec{
		Nodes: nodes, ChunksPerProc: 10, Seed: cfg.Seed,
		ComputeMean: 1.0, ComputeSigma: 0.5,
	}
	equal := core.SingleData{Seed: cfg.Seed}
	skew := func(o *engine.Options) { o.ComputeFactor = factor }
	runs, err := runArms(
		arm{label: "opass-static-equal", rig: rig.Build, plan: equal, tweak: skew},
		arm{label: "opass-static-weighted", rig: rig.Build, plan: core.SingleData{Seed: cfg.Seed, Weights: weights}, tweak: skew},
		arm{label: "opass-dynamic", rig: rig.Build, plan: equal, source: opassMaster, tweak: skew},
	)
	if err != nil {
		return nil, err
	}
	return &HeteroResult{Static: runs[0], Weighted: runs[1], Dynamic: runs[2], SlowNodes: slow, SlowFactor: slowFactor}, nil
}

// Render prints the heterogeneous comparison.
func (r *HeteroResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — heterogeneous cluster (§IV-D motivation): %d of %d nodes compute %.0fx slower\n",
		r.SlowNodes, r.Static.Nodes, r.SlowFactor)
	fmt.Fprintf(&b, "  static equal lists    : makespan %6.1fs  local %5.1f%%\n", r.Static.Makespan, 100*r.Static.Local)
	fmt.Fprintf(&b, "  static capacity-weighted: makespan %5.1fs  local %5.1f%%\n", r.Weighted.Makespan, 100*r.Weighted.Local)
	fmt.Fprintf(&b, "  dynamic (§IV-D)       : makespan %6.1fs  local %5.1f%%\n", r.Dynamic.Makespan, 100*r.Dynamic.Local)
	fmt.Fprintf(&b, "  speedup over equal static: weighted %.2fx, dynamic %.2fx\n",
		r.Static.Makespan/r.Weighted.Makespan, r.Static.Makespan/r.Dynamic.Makespan)
	return b.String()
}

// Headline is the study's line in opass report.
func (r *HeteroResult) Headline() string {
	return fmt.Sprintf("Heterogeneous cluster: dynamic dispatch %.2fx, capacity-weighted static %.2fx over equal static.",
		r.Static.Makespan/r.Dynamic.Makespan, r.Static.Makespan/r.Weighted.Makespan)
}
