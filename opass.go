// Package opass is a Go implementation of Opass — "Analysis and
// Optimization of Parallel Data Access on Distributed File Systems"
// (Yin et al., IEEE IPDPS 2015) — together with everything needed to
// reproduce the paper's evaluation: an HDFS-like distributed file system,
// a contention-aware cluster simulator calibrated to the PRObE Marmot
// testbed, the matching-based Opass planners, the locality-oblivious
// baselines, and the workloads of every figure in the paper.
//
// Opass assigns data-processing tasks to parallel processes so that reads
// from a replicated, randomly-placed distributed file system are served
// locally and in a balanced way. It models the process↔chunk locality
// relation as a bipartite graph and computes assignments with max-flow
// (single-input tasks), a stable-marriage-style matching (multi-input
// tasks), or locality-guided dynamic dispatch (master/worker execution).
//
// # Quick start
//
//	c, _ := opass.NewClusterWithOptions(16, opass.Options{}) // 16 nodes, HDFS defaults
//	c.Store("/data", 16*10*64)                              // 160 chunks of 64 MB, 3-way replicated
//	plan, _ := c.PlanSingleData(opass.StrategyOpass, "/data")
//	report, _ := c.Run(plan)
//	fmt.Println(report)
//
// The sub-packages under internal/ hold the building blocks (simnet, dfs,
// bipartite, core, engine, ...); this package is the one point where an
// application asks for a plan and runs it, as the paper's ParaView reader
// and mpiBLAST master do.
package opass

import (
	"fmt"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/engine"
)

// Strategy names an assignment policy.
type Strategy string

// The assignment strategies available to planners.
const (
	// StrategyOpass is the paper's contribution: flow-based matching for
	// single-input tasks, the exact solution of Algorithm 1's problem for
	// multi-input tasks.
	StrategyOpass Strategy = "opass"
	// StrategyRank is the ParaView-style baseline: contiguous task
	// intervals by process rank.
	StrategyRank Strategy = "rank"
	// StrategyRandom deals tasks to processes uniformly at random.
	StrategyRandom Strategy = "random"
)

// Options configures a simulated cluster; zero fields take HDFS defaults.
type Options struct {
	// Replication is the chunk replication factor (default 3).
	Replication int
	// ChunkMB is the chunk size in MB (default 64).
	ChunkMB float64
	// Seed makes all placement and scheduling randomness reproducible.
	Seed int64
}

// Cluster is a simulated compute/storage cluster running a distributed
// file system, with one data-processing process per node.
type Cluster struct {
	topo *cluster.Topology
	fs   *dfs.FileSystem
	seed int64
}

// NewClusterWithOptions builds a cluster of n nodes, calibrated to the
// Marmot testbed used in the paper. Replicas are placed uniformly at
// random, like HDFS seen from an external writer.
func NewClusterWithOptions(n int, opts Options) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("opass: cluster size %d must be positive", n)
	}
	topo := cluster.New(n, cluster.Marmot())
	fs := dfs.New(topo, dfs.Config{
		ChunkSizeMB: opts.ChunkMB,
		Replication: opts.Replication,
		Seed:        opts.Seed,
	})
	return &Cluster{topo: topo, fs: fs, seed: opts.Seed}, nil
}

// Store writes a file of sizeMB into the DFS, chunked and replicated.
func (c *Cluster) Store(name string, sizeMB float64) error {
	_, err := c.fs.Create(name, sizeMB)
	return err
}

// StorePieces writes a file with explicit piece sizes (one chunk each).
func (c *Cluster) StorePieces(name string, sizesMB []float64) error {
	_, err := c.fs.CreateChunks(name, sizesMB)
	return err
}

// PieceRef names one stored piece: chunk index idx of file name.
type PieceRef struct {
	File  string
	Index int
}

// TaskSpec declares one multi-input task by its input pieces.
type TaskSpec struct {
	Inputs []PieceRef
}

// Plan is a computed task→process assignment ready to execute.
type Plan struct {
	Strategy   Strategy
	Assignment *core.Assignment
	Problem    *core.Problem
	// Dynamic marks the plan for master/worker execution instead of static
	// per-process lists.
	Dynamic bool
}

// Locality is the planned fraction of data that will be read locally.
func (p *Plan) Locality() float64 { return p.Assignment.LocalityFraction() }

// plan assigns prob's tasks under strategy s.
func (c *Cluster) plan(s Strategy, prob *core.Problem, multi bool) (*Plan, error) {
	as, err := core.AssignerFor(string(s), c.seed, multi)
	if err != nil {
		return nil, fmt.Errorf("opass: %w", err)
	}
	a, err := as.Assign(prob)
	if err != nil {
		return nil, err
	}
	return &Plan{Strategy: s, Assignment: a, Problem: prob}, nil
}

// PlanSingleData assigns one task per chunk of the given files, with every
// process receiving an equal share — the §IV-B planner under
// StrategyOpass.
func (c *Cluster) PlanSingleData(s Strategy, files ...string) (*Plan, error) {
	prob, err := core.SingleDataProblem(c.fs, files, c.procNodes())
	if err != nil {
		return nil, err
	}
	return c.plan(s, prob, false)
}

// PlanMultiData assigns multi-input tasks. Under StrategyOpass that is the
// maximum-locality plan within equal task counts (core.MultiExact), the
// optimum Algorithm 1 of §IV-C approximates.
func (c *Cluster) PlanMultiData(s Strategy, tasks []TaskSpec) (*Plan, error) {
	prob := &core.Problem{ProcNode: c.procNodes(), FS: c.fs}
	for i, spec := range tasks {
		task := core.Task{ID: i}
		for _, ref := range spec.Inputs {
			f, err := c.fs.Stat(ref.File)
			if err != nil {
				return nil, err
			}
			if ref.Index < 0 || ref.Index >= len(f.Chunks) {
				return nil, fmt.Errorf("opass: piece %d of %q out of range", ref.Index, ref.File)
			}
			chunk := c.fs.Chunk(f.Chunks[ref.Index])
			task.Inputs = append(task.Inputs, core.Input{Chunk: chunk.ID, SizeMB: chunk.SizeMB})
		}
		prob.Tasks = append(prob.Tasks, task)
	}
	return c.plan(s, prob, true)
}

// AsDynamic converts a static plan into a dynamic master/worker plan. An
// Opass plan's master follows the §IV-D rules (own list first,
// then locality-aware stealing from the longest list); any other plan's
// master hands an idle worker a uniformly random remaining task.
func (p *Plan) AsDynamic() *Plan {
	cp := *p
	cp.Dynamic = true
	return &cp
}

// RunOptions tune an execution.
type RunOptions struct {
	// ComputeTime, when non-nil, gives each task's post-read compute time
	// in seconds.
	ComputeTime func(task int) float64
}

// Run executes a plan on the cluster and reports the trace statistics.
func (c *Cluster) Run(p *Plan) (*Report, error) {
	return c.RunWithOptions(p, RunOptions{})
}

// RunWithOptions executes a plan with tuning options.
func (c *Cluster) RunWithOptions(p *Plan, opts RunOptions) (*Report, error) {
	eopts := engine.Options{
		Topo:        c.topo,
		FS:          c.fs,
		Problem:     p.Problem,
		ComputeTime: opts.ComputeTime,
		Strategy:    string(p.Strategy),
	}
	var (
		res *engine.Result
		err error
	)
	switch {
	case !p.Dynamic:
		res, err = engine.RunAssignment(eopts, p.Assignment)
	case p.Assignment.Matched != nil: // an Opass planner ran
		var sched *core.DynamicScheduler
		if sched, err = core.NewDynamicScheduler(p.Problem, p.Assignment); err == nil {
			res, err = engine.Run(eopts, sched)
		}
	default:
		res, err = engine.Run(eopts, core.NewRandomDispatcher(p.Problem, c.seed))
	}
	if err != nil {
		return nil, err
	}
	return newReport(res), nil
}

func (c *Cluster) procNodes() []int {
	procs := make([]int, c.topo.NumNodes())
	for i := range procs {
		procs[i] = i
	}
	return procs
}
