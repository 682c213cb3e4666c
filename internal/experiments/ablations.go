package experiments

import (
	"fmt"
	"strings"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/engine"
	"opass/internal/workload"
)

// RedistributionResult quantifies the MRAP-style replica migration
// extension: one-time migration cost vs per-run remote traffic avoided.
type RedistributionResult struct {
	Nodes int
	// Before/After are Opass runs on the same skewed layout, without and
	// with the migration applied.
	Before StrategyResult
	After  StrategyResult
	// MovedMB is the migration traffic; BreakEvenRuns = MovedMB / remote
	// MB per run.
	MovedMB       float64
	Migrations    int
	BreakEvenRuns float64
}

// Redistribution runs the §V-C1 "data reconstruction/redistribution"
// extension on a pathologically skewed layout (everything clustered on a
// quarter of the nodes).
func Redistribution(cfg Config) (*RedistributionResult, error) {
	nodes := cfg.scale(64)
	rig := workload.SingleSpec{
		Nodes: nodes, ChunksPerProc: 10, Seed: cfg.Seed,
		Placement: dfs.ClusteredPlacement{},
	}
	opass := core.SingleData{Seed: cfg.Seed}
	var migration *core.RedistributionPlan
	migrate := func(rig *workload.Rig, plan *core.Assignment) (engine.TaskSource, error) {
		var err error
		if migration, err = core.PlanRedistribution(rig.FS, rig.Prob, plan); err != nil {
			return nil, err
		}
		if err := migration.Apply(rig.FS); err != nil {
			return nil, err
		}
		return engine.NewListSource(plan.Lists), nil
	}
	runs, err := runArms(
		arm{label: "opass-skewed", rig: rig.Build, plan: opass},
		arm{label: "opass-redistributed", rig: rig.Build, plan: opass, source: migrate},
	)
	if err != nil {
		return nil, err
	}
	return &RedistributionResult{
		Nodes:         nodes,
		Before:        runs[0],
		After:         runs[1],
		MovedMB:       migration.MovedMB,
		Migrations:    len(migration.Migrations),
		BreakEvenRuns: migration.BreakEvenRuns,
	}, nil
}

// Render prints the redistribution study.
func (r *RedistributionResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — replica redistribution on clustered placement (%d nodes)\n", r.Nodes)
	fmt.Fprintf(&b, "  before: local %5.1f%%  avg I/O %6.3fs  makespan %6.1fs  jain %.3f\n",
		100*r.Before.Local, r.Before.IO.Mean, r.Before.Makespan, r.Before.Fairness)
	fmt.Fprintf(&b, "  after : local %5.1f%%  avg I/O %6.3fs  makespan %6.1fs  jain %.3f\n",
		100*r.After.Local, r.After.IO.Mean, r.After.Makespan, r.After.Fairness)
	fmt.Fprintf(&b, "  migrated %d replicas (%.0f MB), break-even after %.1f runs\n",
		r.Migrations, r.MovedMB, r.BreakEvenRuns)
	return b.String()
}

// ReplicationResult is the replication-factor sweep: X is the factor, and
// Opass.Planned the locality the planner can achieve with that many copies.
type ReplicationResult struct {
	Rows []PairedRow[int]
}

// ReplicationSweep studies how the replication factor shapes what Opass
// can achieve: with r=1 a full matching rarely exists; HDFS's default r=3
// already supports one almost always — the structural reason §IV-A's graph
// has enough edges.
func ReplicationSweep(cfg Config) (*ReplicationResult, error) {
	nodes := cfg.scale(64)
	rows, err := sweepPaired([]int{1, 2, 3, 5}, func(r int) rigBuilder {
		return func() (*workload.Rig, error) {
			return datasetRig(cluster.New(nodes, cluster.Marmot()), dfs.Config{Seed: cfg.Seed, Replication: r}, nil)
		}
	}, core.SingleData{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &ReplicationResult{Rows: rows}, nil
}

// Render prints the replication sweep.
func (res *ReplicationResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation — replication factor vs achievable locality\n")
	fmt.Fprintf(&b, "%3s %14s %14s %14s %14s\n", "r", "opass locality", "rank locality", "opass makespan", "rank makespan")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%3d %13.1f%% %13.1f%% %13.1fs %13.1fs\n",
			r.X, 100*r.Opass.Planned, 100*r.Baseline.Local, r.Opass.Makespan, r.Baseline.Makespan)
	}
	return b.String()
}

// SensitivityResult is the seek-penalty sweep: X is the contention model's
// alpha.
type SensitivityResult struct {
	Rows []PairedRow[float64]
}

// SeekPenaltySensitivity sweeps the disk contention model's alpha and
// reports how the headline improvement responds — the calibration
// sensitivity study backing the EXPERIMENTS.md discussion of why alpha=0.3
// was chosen.
func SeekPenaltySensitivity(cfg Config) (*SensitivityResult, error) {
	rows, err := sweepPaired([]float64{0, 0.15, 0.3, 0.45, 0.6}, func(alpha float64) rigBuilder {
		prof := cluster.Marmot()
		prof.DiskSeekPenalty = alpha
		return workload.SingleSpec{Nodes: cfg.scale(64), ChunksPerProc: 10, Seed: cfg.Seed, Profile: &prof}.Build
	}, core.SingleData{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &SensitivityResult{Rows: rows}, nil
}

// Render prints the seek-penalty sweep.
func (res *SensitivityResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation — disk seek-penalty sensitivity (baseline vs Opass avg I/O)\n")
	fmt.Fprintf(&b, "%6s %14s %14s %12s %12s\n", "alpha", "baseline mean", "baseline max", "opass mean", "improvement")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%6.2f %13.2fs %13.2fs %11.2fs %11.2fx\n",
			r.X, r.Baseline.IO.Mean, r.Baseline.IO.Max, r.Opass.IO.Mean, r.AvgRatio())
	}
	return b.String()
}
