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
//	c, _ := opass.NewCluster(16)          // 16 simulated nodes
//	c.Store("/data", 16*10*64)            // 160 chunks of 64 MB, 3-way replicated
//	plan, _ := c.PlanSingleData(opass.StrategyOpass, "/data")
//	report, _ := c.Run(plan)
//	fmt.Println(report)
//
// The sub-packages under internal/ hold the building blocks (simnet, dfs,
// bipartite, core, engine, ...); this package is the stable facade over
// them.
package opass

import (
	"context"
	"fmt"

	"opass/internal/advisor"
	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/engine"
	"opass/internal/globalsched"
)

// Strategy names an assignment policy.
type Strategy string

// The assignment strategies available to planners.
const (
	// StrategyOpass is the paper's contribution: flow-based matching for
	// single-input tasks, Algorithm 1 for multi-input tasks.
	StrategyOpass Strategy = "opass"
	// StrategyRank is the ParaView-style baseline: contiguous task
	// intervals by process rank.
	StrategyRank Strategy = "rank"
	// StrategyRandom deals tasks to processes uniformly at random.
	StrategyRandom Strategy = "random"
	// StrategyGreedy is the near-linear-time heuristic variant of Opass's
	// planner (§V-C2 scalability future work): scarcest-task-first greedy
	// matching, typically within a few percent of the flow optimum.
	StrategyGreedy Strategy = "greedy"
)

// Master selects the dispatch policy of a dynamic (master/worker) run.
type Master string

// delayMaxSkips is the D parameter of MasterDelay: how many times an idle
// worker may be asked to wait before it receives a non-local task.
const delayMaxSkips = 3

// Dynamic masters.
const (
	// MasterAuto follows the plan's strategy: Opass plans use the §IV-D
	// scheduler, others the random master.
	MasterAuto Master = ""
	// MasterOpass uses the §IV-D guideline lists with locality-aware
	// stealing.
	MasterOpass Master = "opass"
	// MasterRandom hands an idle worker a uniformly random remaining task.
	MasterRandom Master = "random"
	// MasterDelay uses delay scheduling (Zaharia et al., EuroSys'10): an
	// idle worker briefly waits for a local task before accepting any.
	MasterDelay Master = "delay"
)

// Options configures a simulated cluster.
type Options struct {
	// Replication is the chunk replication factor (default 3).
	Replication int
	// ChunkMB is the chunk size in MB (default 64).
	ChunkMB float64
	// Seed makes all placement and scheduling randomness reproducible.
	Seed int64
	// Placement overrides the replica placement policy (default: uniform
	// random, like HDFS seen from an external writer).
	Placement dfs.Placement
	// Racks spreads nodes round-robin over this many racks (default 1).
	Racks int
}

// Cluster is a simulated compute/storage cluster running a distributed
// file system, with one data-processing process per node.
type Cluster struct {
	topo *cluster.Topology
	fs   *dfs.FileSystem
	seed int64
}

// NewCluster builds a cluster of n nodes with default options.
func NewCluster(n int) (*Cluster, error) {
	return NewClusterWithOptions(n, Options{})
}

// NewClusterWithOptions builds a cluster of n nodes, calibrated to the
// Marmot testbed used in the paper.
func NewClusterWithOptions(n int, opts Options) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("opass: cluster size %d must be positive", n)
	}
	racks := opts.Racks
	if racks <= 0 {
		racks = 1
	}
	topo := cluster.NewRacked(n, racks, cluster.Marmot())
	fs := dfs.New(topo, dfs.Config{
		ChunkSizeMB: opts.ChunkMB,
		Replication: opts.Replication,
		Placement:   opts.Placement,
		Seed:        opts.Seed,
	})
	return &Cluster{topo: topo, fs: fs, seed: opts.Seed}, nil
}

// Topology exposes the underlying simulated hardware.
func (c *Cluster) Topology() *cluster.Topology { return c.topo }

// FS exposes the underlying distributed file system.
func (c *Cluster) FS() *dfs.FileSystem { return c.fs }

// NumNodes reports the cluster size.
func (c *Cluster) NumNodes() int { return c.topo.NumNodes() }

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

func (c *Cluster) assigner(s Strategy, multi bool) (core.Assigner, error) {
	as, err := core.AssignerFor(string(s), c.seed, multi)
	if err != nil {
		return nil, fmt.Errorf("opass: %w", err)
	}
	return as, nil
}

// PlanSingleData assigns one task per chunk of the given files, with every
// process receiving an equal share — the §IV-B planner under
// StrategyOpass.
func (c *Cluster) PlanSingleData(s Strategy, files ...string) (*Plan, error) {
	prob, err := core.SingleDataProblem(c.fs, files, c.procNodes())
	if err != nil {
		return nil, err
	}
	prob.SetNodeRacksFromView(c.fs.View())
	as, err := c.assigner(s, false)
	if err != nil {
		return nil, err
	}
	a, err := as.Assign(prob)
	if err != nil {
		return nil, err
	}
	return &Plan{Strategy: s, Assignment: a, Problem: prob}, nil
}

// PlanMultiData assigns multi-input tasks — Algorithm 1 under
// StrategyOpass.
func (c *Cluster) PlanMultiData(s Strategy, tasks []TaskSpec) (*Plan, error) {
	prob := &core.Problem{ProcNode: c.procNodes(), FS: c.fs}
	prob.SetNodeRacksFromView(c.fs.View())
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
	as, err := c.assigner(s, true)
	if err != nil {
		return nil, err
	}
	a, err := as.Assign(prob)
	if err != nil {
		return nil, err
	}
	return &Plan{Strategy: s, Assignment: a, Problem: prob}, nil
}

// AsDynamic converts a static plan into a dynamic master/worker plan whose
// master follows the §IV-D rules (own list first, then locality-aware
// stealing from the longest list).
func (p *Plan) AsDynamic() *Plan {
	cp := *p
	cp.Dynamic = true
	return &cp
}

// RedistributionPlan describes the replica migrations that would make a
// plan fully local, and their cost.
type RedistributionPlan struct {
	// Migrations counts planned replica moves; MovedMB their total traffic.
	Migrations int
	MovedMB    float64
	// BreakEvenRuns is MovedMB divided by the remote traffic the plan
	// incurs per execution — how many runs amortize the migration.
	BreakEvenRuns float64

	inner *core.RedistributionPlan
	fs    *dfs.FileSystem
}

// PlanRedistribution computes the replica moves that would make every read
// of the plan local (the MRAP-style extension the paper cites as beyond
// scope). The cluster is not modified until Apply is called.
func (c *Cluster) PlanRedistribution(p *Plan) (*RedistributionPlan, error) {
	inner, err := core.PlanRedistribution(c.fs, p.Problem, p.Assignment)
	if err != nil {
		return nil, err
	}
	return &RedistributionPlan{
		Migrations:    len(inner.Migrations),
		MovedMB:       inner.MovedMB,
		BreakEvenRuns: inner.BreakEvenRuns,
		inner:         inner,
		fs:            c.fs,
	}, nil
}

// Apply executes the planned migrations against the cluster's file system.
func (rp *RedistributionPlan) Apply() error {
	return rp.inner.Apply(rp.fs)
}

// NodeFailure schedules a DataNode crash during a run (see RunOptions).
type NodeFailure = engine.NodeFailure

// AdvisorOptions tunes the adaptive replication advisor (NewAdvisor).
type AdvisorOptions struct {
	// Interval is the advisory period in seconds of virtual time. The
	// default is a quarter of the access-score decay half-life, which is
	// roughly ten uncontended local chunk reads: long enough to see a
	// workload's shape, short enough that last phase's heat goes stale.
	Interval float64
}

// Advisor is the adaptive replication loop bound to one cluster: reads
// recorded by runs feed its access accounting, and periodic passes during
// advised runs re-point replicas at the demand (see RunOptions.Advisor).
type Advisor struct {
	inner    *advisor.Advisor
	interval float64
}

// AdvisorStats reports an advisor's cumulative actions and the hot/warm/
// cold classification at its last pass.
type AdvisorStats struct {
	Ticks           int
	ReplicasAdded   int
	ReplicasRemoved int
	TargetsRaised   int
	TargetsLowered  int
	Hot, Warm, Cold int
}

// Stats returns the advisor's counters.
func (a *Advisor) Stats() AdvisorStats {
	st := a.inner.Stats()
	return AdvisorStats{
		Ticks:           st.Ticks,
		ReplicasAdded:   st.ReplicasAdded,
		ReplicasRemoved: st.ReplicasRemoved,
		TargetsRaised:   st.TargetsRaised,
		TargetsLowered:  st.TargetsLowered,
		Hot:             st.Hot,
		Warm:            st.Warm,
		Cold:            st.Cold,
	}
}

// NewAdvisor enables per-chunk access accounting on the cluster's file
// system and builds a replication advisor over it. Pass the advisor to
// RunWithOptions to let it adjust replication while plans execute; runs
// without it still feed the accounting.
func (c *Cluster) NewAdvisor(opts AdvisorOptions) (*Advisor, error) {
	halfLife := 10 * c.topo.UncontendedLocalRead(c.fs.Config().ChunkSizeMB)
	interval := opts.Interval
	if interval == 0 {
		interval = halfLife / 4
	}
	if interval <= 0 {
		return nil, fmt.Errorf("opass: advisor interval %v must be positive", interval)
	}
	c.fs.EnableAccessStats(halfLife)
	inner, err := advisor.New(c.fs, advisor.Options{})
	if err != nil {
		return nil, err
	}
	return &Advisor{inner: inner, interval: interval}, nil
}

// RunOptions tune an execution.
type RunOptions struct {
	// ComputeTime, when non-nil, gives each task's post-read compute time
	// in seconds.
	ComputeTime func(task int) float64
	// Master selects the dispatch policy for dynamic plans (MasterAuto
	// follows the plan's strategy).
	Master Master
	// Failures schedules DataNode crashes during the run; in-flight reads
	// served by a crashed node fail over to surviving replicas.
	Failures []NodeFailure
	// Advisor, when non-nil, runs adaptive replication passes during the
	// execution (static plans only): the advisor may add, remove or re-point
	// replicas mid-run, and the not-yet-started backlog is re-matched
	// against the new placement after every pass that changed something.
	Advisor *Advisor
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
		Failures:    opts.Failures,
		Strategy:    string(p.Strategy),
	}
	if opts.Advisor != nil {
		if p.Dynamic {
			return nil, fmt.Errorf("opass: the replication advisor requires a static plan (dynamic backlogs cannot be re-matched)")
		}
		eopts.Advisor = opts.Advisor.inner
		eopts.AdvisorInterval = opts.Advisor.interval
		eopts.Replan = true
		eopts.ReplanSeed = c.seed
	}
	var (
		res *engine.Result
		err error
	)
	if p.Dynamic {
		master := opts.Master
		if master == MasterAuto {
			if p.Strategy == StrategyOpass || p.Strategy == StrategyGreedy {
				master = MasterOpass
			} else {
				master = MasterRandom
			}
		}
		var src engine.TaskSource
		switch master {
		case MasterOpass:
			src, err = core.NewDynamicScheduler(p.Problem, p.Assignment)
			if err != nil {
				return nil, err
			}
		case MasterDelay:
			src = engine.NewDelayDispatcher(p.Problem, delayMaxSkips)
		case MasterRandom:
			src = core.NewRandomDispatcher(p.Problem, c.seed)
		default:
			return nil, fmt.Errorf("opass: unknown master %q", master)
		}
		res, err = engine.Run(eopts, src)
	} else {
		res, err = engine.RunAssignment(eopts, p.Assignment)
	}
	if err != nil {
		return nil, err
	}
	return newReport(res), nil
}

// RunConcurrent executes several plans simultaneously on the cluster — the
// shared-cluster scenario of §V-C1, where one application's reads contend
// with another's. Dynamic plans use their strategy's master; static plans
// walk their lists. Reports are returned in plan order.
func (c *Cluster) RunConcurrent(plans []*Plan) ([]*Report, error) {
	return c.RunConcurrentContext(context.Background(), plans)
}

// RunConcurrentContext is RunConcurrent under cooperative cancellation: a
// cancelled or expired context aborts the mix mid-simulation, tearing down
// every in-flight flow so the cluster's network returns to idle.
func (c *Cluster) RunConcurrentContext(ctx context.Context, plans []*Plan) ([]*Report, error) {
	jobs := make([]engine.JobSpec, len(plans))
	for i, p := range plans {
		var src engine.TaskSource
		if p.Dynamic {
			if p.Strategy == StrategyOpass || p.Strategy == StrategyGreedy {
				sched, err := core.NewDynamicScheduler(p.Problem, p.Assignment)
				if err != nil {
					return nil, err
				}
				src = sched
			} else {
				src = core.NewRandomDispatcher(p.Problem, c.seed+int64(i))
			}
		} else {
			src = engine.NewListSource(p.Assignment.Lists)
		}
		jobs[i] = engine.JobSpec{
			Problem:  p.Problem,
			Source:   src,
			Strategy: string(p.Strategy),
		}
	}
	results, err := engine.RunJobsContext(ctx, c.topo, c.fs, jobs)
	if err != nil {
		return nil, err
	}
	reports := make([]*Report, len(results))
	for i, res := range results {
		reports[i] = newReport(res)
	}
	return reports, nil
}

// JobMixJob is one application of a staggered job mix: a planned problem
// and its arrival time.
type JobMixJob struct {
	// Plan carries the job's problem. Under global scheduling only the
	// problem matters — the scheduler replans it at arrival against the
	// residual cluster; Plan.Assignment is the job's isolated fallback.
	Plan *Plan
	// StartAt is the job's arrival delay in seconds of virtual time.
	StartAt float64
}

// JobMixOptions tunes RunJobMix.
type JobMixOptions struct {
	// Balance is the locality-vs-global-balance knob in [0, 1] (see
	// internal/globalsched): 0 plans each job in isolation even at arrival,
	// 1 plans purely by residual node headroom.
	Balance float64
	// Isolated disables the cluster scheduler entirely: every job runs its
	// own precomputed Plan.Assignment — the uncoordinated baseline the
	// globally-scheduled run is compared against.
	Isolated bool
}

// RunJobMix executes a staggered mix of jobs under the cluster-level
// scheduler (or, with Isolated, as uncoordinated per-job plans). Each
// report's JobMakespan is measured from the job's own arrival.
func (c *Cluster) RunJobMix(jobs []JobMixJob, opts JobMixOptions) ([]*Report, error) {
	return c.RunJobMixContext(context.Background(), jobs, opts)
}

// RunJobMixContext is RunJobMix under cooperative cancellation.
func (c *Cluster) RunJobMixContext(ctx context.Context, jobs []JobMixJob, opts JobMixOptions) ([]*Report, error) {
	specs := make([]engine.JobSpec, len(jobs))
	for i, j := range jobs {
		if j.Plan == nil {
			return nil, fmt.Errorf("opass: job %d has no plan", i)
		}
		specs[i] = engine.JobSpec{
			Problem:  j.Plan.Problem,
			Strategy: string(j.Plan.Strategy),
			StartAt:  j.StartAt,
		}
		if opts.Isolated {
			specs[i].Source = engine.NewListSource(j.Plan.Assignment.Lists)
		}
	}
	var sched engine.ClusterScheduler
	if !opts.Isolated {
		gsOpts := globalsched.Options{
			Balance: opts.Balance,
			Seed:    c.seed,
		}
		if c.topo.NumRacks() > 1 {
			racks := make([]int, c.topo.NumNodes())
			for i := range racks {
				racks[i] = c.topo.RackOf(i)
			}
			gsOpts.NodeRack = racks
		}
		gs, err := globalsched.New(c.NumNodes(), gsOpts)
		if err != nil {
			return nil, err
		}
		sched = gs
		for i := range specs {
			specs[i].Strategy = "globalsched"
		}
	}
	results, err := engine.RunJobsScheduled(ctx, c.topo, c.fs, specs, sched)
	if err != nil {
		return nil, err
	}
	reports := make([]*Report, len(results))
	for i, res := range results {
		reports[i] = newReport(res)
	}
	return reports, nil
}

func (c *Cluster) procNodes() []int {
	procs := make([]int, c.topo.NumNodes())
	for i := range procs {
		procs[i] = i
	}
	return procs
}
