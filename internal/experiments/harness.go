package experiments

import (
	"fmt"
	"time"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/engine"
	"opass/internal/report"
	"opass/internal/workload"
)

// This file is the run harness every single-job study shares: a study lists
// its arms, the harness builds each arm's cluster, plans, simulates and
// summarises. It is the only place in the package that calls engine.Run for
// one job (the multi-job studies, shared and jobmix, drive engine.RunJobs
// themselves).

// StrategyResult captures one arm's run within a study.
type StrategyResult struct {
	Strategy string
	Nodes    int
	IO       report.Stats // per-read I/O time (s)
	Served   report.Stats // per-node served data (MB)
	ServedMB []float64
	IOTimes  []float64
	Local    float64 // fraction of bytes read locally
	// Planned is the locality fraction of the arm's static plan and PlanWall
	// the wall-clock time planning took (both 0 for an arm fed by a
	// dispatcher that needs no plan).
	Planned  float64
	PlanWall time.Duration
	// Makespan is completion minus arrival — for staggered concurrent jobs
	// this is the latency the job's owner observes, not the wall-clock end
	// of the whole mix. Single runs arrive at 0, so nothing changes there.
	Makespan float64
	Fairness float64
	// MeanDiskUtilization is the average fraction of disk bandwidth used
	// across nodes during the run (parallel-use efficiency).
	MeanDiskUtilization float64

	// run and rig are the raw engine result and the cluster it ran on, for
	// studies that report more than the summary (records, retries, racks).
	run *engine.Result
	rig *workload.Rig
}

func strategyResult(nodes int, res *engine.Result) StrategyResult {
	sum := report.Summarize(res)
	return StrategyResult{
		Strategy:            sum.Strategy,
		Nodes:               nodes,
		IO:                  sum.IO,
		Served:              sum.Served,
		ServedMB:            append([]float64(nil), res.ServedMB...),
		IOTimes:             res.IOTimes(),
		Local:               sum.LocalFraction,
		Makespan:            res.JobMakespan(),
		Fairness:            sum.Fairness,
		MeanDiskUtilization: report.StatsOf(res.DiskUtilization).Mean,
		run:                 res,
	}
}

// rigBuilder materializes a cluster with data placed and a problem posed:
// the Build method of a workload.*Spec, or a closure for the clusters no
// spec describes (replication factors, racked fabrics).
type rigBuilder func() (*workload.Rig, error)

// datasetRig stores the paper's dataset — ten 64 MB chunks per node — on
// topo under fsCfg and poses the single-data problem with one process per
// node. Non-nil rows place chunk i exactly on rows[i] instead of by the
// configured policy.
func datasetRig(topo *cluster.Topology, fsCfg dfs.Config, rows [][]int) (*workload.Rig, error) {
	nodes := topo.NumNodes()
	fs := dfs.New(topo, fsCfg)
	var err error
	if rows == nil {
		_, err = fs.Create("/dataset", float64(nodes*10*64))
	} else {
		sizes := make([]float64, len(rows))
		for i := range sizes {
			sizes[i] = 64
		}
		_, err = fs.CreateChunksReplicated("/dataset", sizes, rows)
	}
	if err != nil {
		return nil, err
	}
	procNode := make([]int, nodes)
	for i := range procNode {
		procNode[i] = i
	}
	prob, err := core.SingleDataProblem(fs, []string{"/dataset"}, procNode)
	if err != nil {
		return nil, err
	}
	return &workload.Rig{Topo: topo, FS: fs, Prob: prob}, nil
}

// taskSource builds an arm's dispatcher from its rig and, when the arm has
// a planner, the plan.
type taskSource func(rig *workload.Rig, plan *core.Assignment) (engine.TaskSource, error)

// arm is one run of a study.
type arm struct {
	// label is the strategy name the run reports; empty means plan.Name().
	label string
	// rig is built afresh for this arm, so arms given the same spec run on
	// identical, independent clusters and comparisons stay paired.
	rig rigBuilder
	// plan, when set, is assigned over the rig's problem. Without a source
	// the plan runs as static per-process lists.
	plan core.Assigner
	// source, when set, feeds the run instead (a master/worker dispatcher,
	// or lists derived from the plan).
	source taskSource
	// tweak adjusts the engine options (faults, compute skew, advisor).
	tweak func(*engine.Options)
}

// runArms runs each arm on a freshly built rig.
func runArms(arms ...arm) ([]StrategyResult, error) {
	out := make([]StrategyResult, len(arms))
	for i, a := range arms {
		rig, err := a.rig()
		if err != nil {
			return nil, err
		}
		if out[i], err = runOn(rig, a); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runOn plans and simulates one arm on an already built rig (a.rig is not
// consulted): the step runArms repeats per arm, and the one the advisor
// study repeats per round over a cluster that keeps its state.
func runOn(rig *workload.Rig, a arm) (StrategyResult, error) {
	label := a.label
	if label == "" {
		label = a.plan.Name()
	}
	fail := func(err error) (StrategyResult, error) {
		return StrategyResult{}, fmt.Errorf("%s: %w", label, err)
	}
	var plan *core.Assignment
	var planWall time.Duration
	if a.plan != nil {
		var err error
		if plan, planWall, err = timePlan(a.plan, rig.Prob); err != nil {
			return fail(err)
		}
	}
	opts := engine.Options{
		Topo: rig.Topo, FS: rig.FS, Problem: rig.Prob,
		ComputeTime: rig.Compute, Strategy: label,
	}
	if a.tweak != nil {
		a.tweak(&opts)
	}
	var res *engine.Result
	var err error
	if a.source == nil {
		res, err = engine.RunAssignment(opts, plan)
	} else {
		var src engine.TaskSource
		if src, err = a.source(rig, plan); err != nil {
			return fail(err)
		}
		res, err = engine.Run(opts, src)
	}
	if err != nil {
		return fail(err)
	}
	out := strategyResult(rig.Topo.NumNodes(), res)
	out.rig, out.PlanWall = rig, planWall
	if plan != nil {
		out.Planned = plan.LocalityFraction()
	}
	return out, nil
}

// Pair is the paper's standard comparison: the rank-static baseline and an
// Opass planner over two identically built rigs.
type Pair struct {
	Baseline StrategyResult
	Opass    StrategyResult
}

// AvgRatio is the paper's headline metric: baseline avg I/O over Opass avg.
func (p Pair) AvgRatio() float64 {
	if p.Opass.IO.Mean == 0 {
		return 0
	}
	return p.Baseline.IO.Mean / p.Opass.IO.Mean
}

// paired measures the pair: rig is built once per side.
func paired(rig rigBuilder, opass core.Assigner) (Pair, error) {
	runs, err := runArms(arm{rig: rig, plan: core.RankStatic{}}, arm{rig: rig, plan: opass})
	if err != nil {
		return Pair{}, err
	}
	return Pair{Baseline: runs[0], Opass: runs[1]}, nil
}

// PairedRow is one point of a sweep: the pair measured at parameter X.
type PairedRow[T any] struct {
	X T
	Pair
}

// sweepPaired measures one pair per parameter value.
func sweepPaired[T any](xs []T, rig func(T) rigBuilder, opass core.Assigner) ([]PairedRow[T], error) {
	rows := make([]PairedRow[T], 0, len(xs))
	for _, x := range xs {
		pair, err := paired(rig(x), opass)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PairedRow[T]{x, pair})
	}
	return rows, nil
}

// opassMaster is the §IV-D dynamic scheduler guided by the arm's plan.
func opassMaster(rig *workload.Rig, plan *core.Assignment) (engine.TaskSource, error) {
	return core.NewDynamicScheduler(rig.Prob, plan)
}

// randomMaster is the default master: any idle worker gets a random task.
func randomMaster(seed int64) taskSource {
	return func(rig *workload.Rig, _ *core.Assignment) (engine.TaskSource, error) {
		return core.NewRandomDispatcher(rig.Prob, seed), nil
	}
}

// timePlan measures one planner call in wall-clock time.
func timePlan(as core.Assigner, p *core.Problem) (*core.Assignment, time.Duration, error) {
	start := time.Now()
	a, err := as.Assign(p)
	return a, time.Since(start), err
}
