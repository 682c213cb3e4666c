// Package workload constructs the datasets and task sets of the paper's
// experiments: the single-data microbenchmark (ten 64 MB chunks per
// process, §V-A1), the multi-data task set (three inputs of 30/20/10 MB per
// task from three different datasets, §V-A2), and the dynamic master/worker
// workload with irregular per-task computation (§V-A3). Every builder
// returns a ready topology, file system, and assignment problem so the
// bench harness and the examples stay declarative.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"opass/internal/cluster"
	"opass/internal/core"
	"opass/internal/dfs"
)

// Rig bundles everything an experiment needs.
type Rig struct {
	Topo *cluster.Topology
	FS   *dfs.FileSystem
	Prob *core.Problem
	// Compute, when non-nil, gives each task's post-read computation time
	// in seconds (heterogeneous workloads).
	Compute func(task int) float64
}

// SingleSpec describes a parallel single-data access workload: one process
// per node, ChunksPerProc single-chunk tasks per process.
type SingleSpec struct {
	Nodes         int
	ChunksPerProc int
	Seed          int64
	Placement     dfs.Placement // nil means random, as in the paper
	Profile       *cluster.Profile
}

// Build materializes the workload.
func (s SingleSpec) Build() (*Rig, error) {
	if s.Nodes <= 0 || s.ChunksPerProc <= 0 {
		return nil, fmt.Errorf("workload: invalid single spec %+v", s)
	}
	prof := cluster.Marmot()
	if s.Profile != nil {
		prof = *s.Profile
	}
	topo := cluster.New(s.Nodes, prof)
	fs := dfs.New(topo, dfs.Config{Seed: s.Seed, Placement: s.Placement})
	total := float64(s.Nodes*s.ChunksPerProc) * 64
	if _, err := fs.Create("/dataset", total); err != nil {
		return nil, err
	}
	procNode := identityProcs(s.Nodes)
	prob, err := core.SingleDataProblem(fs, []string{"/dataset"}, procNode)
	if err != nil {
		return nil, err
	}
	return &Rig{Topo: topo, FS: fs, Prob: prob}, nil
}

// MultiSpec describes the multi-data workload: TasksPerProc tasks per
// process, each reading one piece from each of the paper's three datasets
// (30, 20 and 10 MB pieces).
type MultiSpec struct {
	Nodes        int
	TasksPerProc int
	Seed         int64
}

// Build materializes the workload.
func (s MultiSpec) Build() (*Rig, error) {
	if s.Nodes <= 0 || s.TasksPerProc <= 0 {
		return nil, fmt.Errorf("workload: invalid multi spec %+v", s)
	}
	inputs := []float64{30, 20, 10}
	topo := cluster.New(s.Nodes, cluster.Marmot())
	fs := dfs.New(topo, dfs.Config{Seed: s.Seed})
	n := s.Nodes * s.TasksPerProc
	// Each input class is its own dataset ("the gene datasets of species"):
	// dataset j holds n pieces of inputs[j] MB, one per task.
	sets := make([][]dfs.ChunkID, len(inputs))
	for j, sz := range inputs {
		sizes := make([]float64, n)
		for i := range sizes {
			sizes[i] = sz
		}
		f, err := fs.CreateChunks(fmt.Sprintf("/set%d", j), sizes)
		if err != nil {
			return nil, err
		}
		sets[j] = f.Chunks
	}
	prob := &core.Problem{ProcNode: identityProcs(s.Nodes), FS: fs}
	for i := 0; i < n; i++ {
		task := core.Task{ID: i}
		for j, sz := range inputs {
			task.Inputs = append(task.Inputs, core.Input{Chunk: sets[j][i], SizeMB: sz})
		}
		prob.Tasks = append(prob.Tasks, task)
	}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	return &Rig{Topo: topo, FS: fs, Prob: prob}, nil
}

// DynamicSpec describes the §V-A3 workload: single-chunk tasks whose
// computation times are irregular ("difficult to predict according to the
// input data"), drawn from a log-normal distribution, executed through a
// master/worker dispatch loop.
type DynamicSpec struct {
	Nodes         int
	ChunksPerProc int
	Seed          int64
	// ComputeMean is the mean task computation time in seconds; zero
	// disables compute (pure I/O).
	ComputeMean float64
	// ComputeSigma is the sigma of the underlying normal; larger values
	// give heavier tails. Defaults to 0.8 when ComputeMean > 0.
	ComputeSigma float64
}

// Build materializes the workload.
func (s DynamicSpec) Build() (*Rig, error) {
	rig, err := SingleSpec{
		Nodes:         s.Nodes,
		ChunksPerProc: s.ChunksPerProc,
		Seed:          s.Seed,
	}.Build()
	if err != nil {
		return nil, err
	}
	if s.ComputeMean > 0 {
		sigma := s.ComputeSigma
		if sigma == 0 {
			sigma = 0.8
		}
		rig.Compute = LogNormalCompute(len(rig.Prob.Tasks), s.ComputeMean, sigma, s.Seed+1)
	}
	return rig, nil
}

// LogNormalCompute pre-draws a fixed log-normal computation time for each
// of n tasks with the given mean and shape, so that every strategy sees
// identical task costs (paired comparison).
func LogNormalCompute(n int, mean, sigma float64, seed int64) func(int) float64 {
	rng := rand.New(rand.NewSource(seed))
	// E[lognormal(mu, sigma)] = exp(mu + sigma^2/2)  =>  solve for mu.
	mu := math.Log(mean) - sigma*sigma/2
	times := make([]float64, n)
	for i := range times {
		times[i] = math.Exp(mu + sigma*rng.NormFloat64())
	}
	return func(task int) float64 {
		if task < 0 || task >= len(times) {
			panic(fmt.Sprintf("workload: compute time for unknown task %d", task))
		}
		return times[task]
	}
}

// identityProcs places one process on each of n nodes (rank i on node i),
// the deployment used throughout the paper's evaluation.
func identityProcs(n int) []int {
	procs := make([]int, n)
	for i := range procs {
		procs[i] = i
	}
	return procs
}

// SkewedSpec builds a single-data workload over a cluster where extra
// nodes joined after the dataset was written (the §IV-B unbalanced
// redistribution scenario): LateNodes of the Nodes nodes hold no data.
type SkewedSpec struct {
	Nodes         int
	LateNodes     int
	ChunksPerProc int
	Seed          int64
	// RunBalancer moves replicas onto the late nodes before the problem is
	// built, as the HDFS balancer would.
	RunBalancer bool
}

// Build materializes the workload.
func (s SkewedSpec) Build() (*Rig, error) {
	if s.Nodes <= 0 || s.LateNodes < 0 || s.LateNodes >= s.Nodes || s.ChunksPerProc <= 0 {
		return nil, fmt.Errorf("workload: invalid skewed spec %+v", s)
	}
	topo := cluster.New(s.Nodes, cluster.Marmot())
	fs := dfs.New(topo, dfs.Config{Seed: s.Seed})
	for i := s.Nodes - s.LateNodes; i < s.Nodes; i++ {
		if err := fs.MarkDead(i); err != nil {
			return nil, err
		}
	}
	total := float64(s.Nodes*s.ChunksPerProc) * 64
	if _, err := fs.Create("/dataset", total); err != nil {
		return nil, err
	}
	for i := s.Nodes - s.LateNodes; i < s.Nodes; i++ {
		if err := fs.AddNode(i); err != nil {
			return nil, err
		}
	}
	if s.RunBalancer {
		fs.Balance(0.1)
	}
	prob, err := core.SingleDataProblem(fs, []string{"/dataset"}, identityProcs(s.Nodes))
	if err != nil {
		return nil, err
	}
	return &Rig{Topo: topo, FS: fs, Prob: prob}, nil
}
