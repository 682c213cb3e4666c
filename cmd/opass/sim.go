package main

import (
	"fmt"
	"io"
	"os"

	"opass"
	"opass/internal/core"
	"opass/internal/engine"
	"opass/internal/report"
	"opass/internal/workload"
)

// simMain runs one parallel data access simulation with explicit parameters and
// prints the resulting report — a workbench for exploring configurations
// beyond the paper's.
//
//	opass sim -nodes 64 -chunks-per-proc 10 -strategy opass
//	opass sim -nodes 32 -strategy rank -dynamic
//	opass sim -nodes 16 -multi -strategy opass
//	opass sim -nodes 16 -trace tasks.csv -dynamic -compare
func simMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("sim", stderr)
	nodes := fs.Int("nodes", 64, "cluster size (one process per node)")
	chunksPerProc := fs.Int("chunks-per-proc", 10, "tasks per process")
	chunkMB := fs.Float64("chunk-mb", 64, "chunk size in MB")
	repl := fs.Int("replication", 3, "replication factor")
	strategy := fs.String("strategy", "opass", "assignment strategy: opass | rank | random")
	dynamic := fs.Bool("dynamic", false, "use master/worker dynamic dispatch")
	multi := fs.Bool("multi", false, "multi-data tasks (30/20/10 MB inputs) instead of single chunks")
	seed := fs.Int64("seed", 42, "random seed")
	compare := fs.Bool("compare", false, "also run the rank baseline and print a comparison")
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of a table")
	traceFile := fs.String("trace", "", "CSV task trace to replay (task_id, compute_s, input_mb...)")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "opass sim:", err)
		return 1
	}

	// One workload, the trace or the synthetic one, for both sides of -compare.
	sim := func(strategy string) (*opass.Report, error) {
		if *traceFile != "" {
			return simTrace(*traceFile, *nodes, strategy, *dynamic, *seed)
		}
		return simRun(*nodes, *chunksPerProc, *chunkMB, *repl, opass.Strategy(strategy), *dynamic, *multi, *seed)
	}
	rep, err := sim(*strategy)
	if err != nil {
		return fail(err)
	}
	if *jsonOut {
		if err := report.WriteSummaryJSON(stdout, rep.Raw()); err != nil {
			return fail(err)
		}
		return 0
	}
	if !*compare {
		fmt.Fprint(stdout, rep.Table())
		return 0
	}
	base, err := sim(string(opass.StrategyRank))
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, opass.Compare(base, rep))
	return 0
}

func simRun(nodes, chunksPerProc int, chunkMB float64, repl int, strategy opass.Strategy, dynamic, multi bool, seed int64) (*opass.Report, error) {
	c, err := opass.NewClusterWithOptions(nodes, opass.Options{
		Replication: repl,
		ChunkMB:     chunkMB,
		Seed:        seed,
	})
	if err != nil {
		return nil, err
	}
	var plan *opass.Plan
	if multi {
		n := nodes * chunksPerProc
		// A slice, not a map: the store order decides placement, and -seed
		// must reproduce the run.
		for _, set := range []struct {
			name string
			mb   float64
		}{{"/setA", 30}, {"/setB", 20}, {"/setC", 10}} {
			sizes := make([]float64, n)
			for i := range sizes {
				sizes[i] = set.mb
			}
			if err := c.StorePieces(set.name, sizes); err != nil {
				return nil, err
			}
		}
		tasks := make([]opass.TaskSpec, n)
		for i := range tasks {
			tasks[i] = opass.TaskSpec{Inputs: []opass.PieceRef{
				{File: "/setA", Index: i},
				{File: "/setB", Index: i},
				{File: "/setC", Index: i},
			}}
		}
		plan, err = c.PlanMultiData(strategy, tasks)
	} else {
		if err := c.Store("/dataset", float64(nodes*chunksPerProc)*chunkMB); err != nil {
			return nil, err
		}
		plan, err = c.PlanSingleData(strategy, "/dataset")
	}
	if err != nil {
		return nil, err
	}
	if dynamic {
		plan = plan.AsDynamic()
	}
	return c.Run(plan)
}

// simTrace replays a CSV task trace on a fresh cluster under strategy; a
// trace with any multi-input task is planned as a multi-data problem. The
// dynamic master follows the facade's rule: the §IV-D scheduler for an
// Opass plan, the random dispatcher otherwise.
func simTrace(path string, nodes int, strategy string, dynamic bool, seed int64) (*opass.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tasks, err := workload.ParseTrace(f)
	if err != nil {
		return nil, err
	}
	rig, err := workload.TraceSpec{Nodes: nodes, Tasks: tasks, Seed: seed}.Build()
	if err != nil {
		return nil, err
	}
	as, err := core.AssignerFor(strategy, seed, rig.Prob.MultiInput())
	if err != nil {
		return nil, err
	}
	a, err := as.Assign(rig.Prob)
	if err != nil {
		return nil, err
	}
	var src engine.TaskSource = engine.NewListSource(a.Lists)
	switch {
	case !dynamic:
	case a.Matched != nil: // an Opass planner ran
		if src, err = core.NewDynamicScheduler(rig.Prob, a); err != nil {
			return nil, err
		}
	default:
		src = core.NewRandomDispatcher(rig.Prob, seed)
	}
	res, err := engine.Run(engine.Options{
		Topo: rig.Topo, FS: rig.FS, Problem: rig.Prob,
		ComputeTime: rig.Compute, Strategy: strategy,
	}, src)
	if err != nil {
		return nil, err
	}
	return opass.ReportOf(res), nil
}
