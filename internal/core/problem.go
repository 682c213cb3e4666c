// Package core implements Opass itself: the encoding of parallel data
// requests as a process-to-data bipartite matching (§IV-A of the paper),
// the flow-based optimizer for parallel single-data access (§IV-B), the
// matching-based algorithm for multi-data access (Algorithm 1, §IV-C), the
// dynamic scheduler for heterogeneous master/worker execution (§IV-D), and
// the locality-oblivious baselines the paper compares against.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"opass/internal/bipartite"
	"opass/internal/dfs"
)

// Input is one data dependency of a task: a chunk in the file system and
// the amount of its data the task reads (normally the whole chunk).
type Input struct {
	Chunk  dfs.ChunkID
	SizeMB float64
}

// Task is one data-processing operator. Single-data tasks carry one input;
// multi-data tasks (e.g. cross-species genome comparison) carry several.
type Task struct {
	ID     int
	Inputs []Input
}

// SizeMB is the total input data of the task.
func (t *Task) SizeMB() float64 {
	var s float64
	for _, in := range t.Inputs {
		s += in.SizeMB
	}
	return s
}

// Problem is a complete assignment problem: which processes run where,
// which tasks must be executed, and the placement of the chunks they read.
type Problem struct {
	// ProcNode[i] is the cluster node hosting process rank i.
	ProcNode []int
	// Tasks to assign; IDs must equal their slice index.
	Tasks []Task
	// FS supplies chunk placement (the namenode metadata Opass queries): a
	// *dfs.FileSystem, or a Layout when the placement is only ever read.
	FS Placement
	// NodeRack, when non-nil, maps each cluster node to its rack id. It
	// enables the graded-locality tier (node-local > rack-local > remote)
	// in the planners: tasks the locality solver leaves unmatched are
	// steered to a process in a rack holding their data before the random
	// repair step crosses an uplink. Nil — or a map spanning a single rack,
	// the paper's one-switch topology — disables the tier entirely, keeping
	// plans byte-identical to the rack-oblivious planner.
	NodeRack []int
}

// Validate checks structural consistency; planners call it first.
func (p *Problem) Validate() error {
	if len(p.ProcNode) == 0 {
		return fmt.Errorf("core: problem has no processes")
	}
	if len(p.Tasks) == 0 {
		return fmt.Errorf("core: problem has no tasks")
	}
	if p.FS == nil {
		return fmt.Errorf("core: problem has no file system")
	}
	for i, t := range p.Tasks {
		if t.ID != i {
			return fmt.Errorf("core: task %d has ID %d; IDs must be dense", i, t.ID)
		}
		if len(t.Inputs) == 0 {
			return fmt.Errorf("core: task %d has no inputs", i)
		}
		for _, in := range t.Inputs {
			if in.SizeMB <= 0 {
				return fmt.Errorf("core: task %d input chunk %d has size %v", i, in.Chunk, in.SizeMB)
			}
		}
	}
	if p.NodeRack != nil {
		for i, node := range p.ProcNode {
			if node < 0 || node >= len(p.NodeRack) {
				return fmt.Errorf("core: node rack map covers %d nodes but process %d runs on node %d", len(p.NodeRack), i, node)
			}
		}
		for node, r := range p.NodeRack {
			if r < 0 {
				return fmt.Errorf("core: node %d has negative rack %d", node, r)
			}
		}
	}
	return nil
}

// NumProcs reports the process count.
func (p *Problem) NumProcs() int { return len(p.ProcNode) }

// TotalMB is the aggregate input size over all tasks.
func (p *Problem) TotalMB() float64 {
	var s float64
	for i := range p.Tasks {
		s += p.Tasks[i].SizeMB()
	}
	return s
}

// CoLocatedMB computes the matching value m_i^j of Algorithm 1: the amount
// of task j's input data that has a replica on process i's node.
func (p *Problem) CoLocatedMB(proc, task int) float64 {
	node := p.ProcNode[proc]
	var s float64
	for _, in := range p.Tasks[task].Inputs {
		if p.HostedOn(in.Chunk, node) {
			s += in.SizeMB
		}
	}
	return s
}

// HostedOn reports whether chunk id has a replica on node.
func (p *Problem) HostedOn(id dfs.ChunkID, node int) bool {
	return slices.Contains(p.FS.Replicas(id), node)
}

// SingleDataProblem builds a Problem with one task per chunk of the given
// files — the workload shape of the paper's single-data experiments (each
// ParaView-style task consumes exactly one chunk file).
func SingleDataProblem(fs *dfs.FileSystem, files []string, procNode []int) (*Problem, error) {
	p := &Problem{ProcNode: procNode, FS: fs}
	for _, name := range files {
		locs, err := fs.BlockLocations(name)
		if err != nil {
			return nil, err
		}
		for _, loc := range locs {
			p.Tasks = append(p.Tasks, Task{
				ID:     len(p.Tasks),
				Inputs: []Input{{Chunk: loc.Chunk, SizeMB: loc.SizeMB}},
			})
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Assignment is a complete task→process mapping.
type Assignment struct {
	// Owner[t] is the process assigned task t.
	Owner []int
	// Lists[p] are the tasks of process p, in the planner's preferred
	// execution order.
	Lists [][]int
	// PlannedLocalMB is the input data co-located with its owner under this
	// assignment; PlannedTotalMB is the total input data.
	PlannedLocalMB float64
	PlannedTotalMB float64
	// Matched, when non-nil, records which owners are locality decisions of
	// the planner's solver (flow network, matcher, greedy pass, Algorithm 1)
	// as opposed to the repair stages that home the tasks it left unmatched
	// (see finishAssignment). It is observability only — the matched
	// fraction is how far the placement is from supporting a full matching.
	// Planners with no solver/repair split (the baselines) leave it nil.
	Matched []bool
}

// LocalityFraction is the planned fraction of data readable locally.
func (a *Assignment) LocalityFraction() float64 {
	if a.PlannedTotalMB == 0 {
		return 0
	}
	return a.PlannedLocalMB / a.PlannedTotalMB
}

// Validate checks that the assignment covers every task exactly once and
// stays consistent with its lists.
func (a *Assignment) Validate(p *Problem) error {
	if len(a.Owner) != len(p.Tasks) {
		return fmt.Errorf("core: assignment covers %d tasks, want %d", len(a.Owner), len(p.Tasks))
	}
	if len(a.Lists) != p.NumProcs() {
		return fmt.Errorf("core: assignment has %d lists, want %d", len(a.Lists), p.NumProcs())
	}
	seen := make([]bool, len(p.Tasks))
	for proc, list := range a.Lists {
		for _, t := range list {
			if t < 0 || t >= len(p.Tasks) {
				return fmt.Errorf("core: list of proc %d contains invalid task %d", proc, t)
			}
			if seen[t] {
				return fmt.Errorf("core: task %d appears in multiple lists", t)
			}
			seen[t] = true
			if a.Owner[t] != proc {
				return fmt.Errorf("core: task %d in list of proc %d but owned by %d", t, proc, a.Owner[t])
			}
		}
	}
	for t, ok := range seen {
		if !ok {
			return fmt.Errorf("core: task %d not assigned", t)
		}
	}
	return nil
}

// fillLocality computes the planned locality statistics for an assignment.
func fillLocality(p *Problem, a *Assignment) {
	a.PlannedLocalMB = 0
	a.PlannedTotalMB = p.TotalMB()
	for t, proc := range a.Owner {
		a.PlannedLocalMB += p.CoLocatedMB(proc, t)
	}
}

// Assigner is a task-assignment strategy: Opass planners and baselines.
type Assigner interface {
	// Name identifies the strategy in reports ("opass-flow", "rank-static"...).
	Name() string
	// Assign computes a complete assignment for the problem.
	Assign(p *Problem) (*Assignment, error)
}

// AssignerFor is the one strategy table: "opass" is the paper's planner
// (MultiData when any task has several inputs, else SingleData), "rank" and
// "random" the locality-oblivious baselines, "greedy" the near-linear
// heuristic. The error for any other name carries no package prefix, so the
// facade and the service can each put their own in front of it.
func AssignerFor(strategy string, seed int64, multi bool) (Assigner, error) {
	switch strategy {
	case "opass":
		if multi {
			return MultiData{Seed: seed}, nil
		}
		return SingleData{Seed: seed}, nil
	case "rank":
		return RankStatic{}, nil
	case "random":
		return RandomStatic{Seed: seed}, nil
	case "greedy":
		return GreedyLocality{Seed: seed}, nil
	default:
		return nil, fmt.Errorf("unknown strategy %q", strategy)
	}
}

// ContextAssigner is implemented by planners whose Assign supports
// cooperative cancellation: the planner periodically polls ctx (inside its
// flow loop, proposal rounds, and index build) and returns ctx's error
// instead of running a doomed plan to completion. The heavy planners
// (SingleData, MultiData, GreedyLocality) implement it; the O(n) baselines
// do not need to.
type ContextAssigner interface {
	Assigner
	// AssignContext computes a complete assignment, aborting early with
	// ctx's error once ctx is done.
	AssignContext(ctx context.Context, p *Problem) (*Assignment, error)
}

// AssignContext runs a planner under ctx: cancellation-aware planners get
// the context threaded through their hot loops, and any planner is at least
// gated by an up-front check. This is the service entry point — callers that
// own a request deadline should prefer it over calling Assign directly.
func AssignContext(ctx context.Context, a Assigner, p *Problem) (*Assignment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ca, ok := a.(ContextAssigner); ok {
		return ca.AssignContext(ctx, p)
	}
	return a.Assign(p)
}

// procBias expands a per-node bias vector into per-process factors and
// validates it: factors must be in (0, 1] and the vector must cover every
// node hosting a process. A nil bias means "no bias" and returns nil. This
// is the lever the cluster-level scheduler (internal/globalsched) uses to
// steer a job's matcher away from nodes that are hot from earlier jobs: in
// the flow formulation the factors scale the source→process arc capacities
// (the per-process quota edges), in the matching formulation they scale the
// proposal values.
func procBias(p *Problem, bias []float64) ([]float64, error) {
	if bias == nil {
		return nil, nil
	}
	out := make([]float64, p.NumProcs())
	for i, node := range p.ProcNode {
		if node >= len(bias) {
			return nil, fmt.Errorf("core: node bias covers %d nodes but process %d runs on node %d", len(bias), i, node)
		}
		b := bias[node]
		if b <= 0 || b > 1 {
			return nil, fmt.Errorf("core: node bias[%d] = %v must be in (0, 1]", node, b)
		}
		out[i] = b
	}
	return out, nil
}

// taskQuotas splits n tasks over m processes as evenly as possible: the
// first n%m processes receive one extra task, mirroring the paper's
// "assigned an equal number of tasks" constraint.
func taskQuotas(n, m int) []int {
	q := make([]int, m)
	base, rem := n/m, n%m
	for i := range q {
		q[i] = base
		if i < rem {
			q[i]++
		}
	}
	return q
}

// maxCapUnits bounds every quantity the flow encoding expresses in
// capacity units. capacityScale clamps the unit so the problem's aggregate
// size stays at or below it, and capUnits saturates individual conversions
// at it, so any sum of fewer than 2^23 capacities — source-arc totals,
// per-process quotas, flow bottlenecks — provably stays below 2^63 on every
// platform. (The bound matters only for absurd inputs: at 2^40 sub-MB
// units a real workload is an exabyte. Normal problems never see it.)
const maxCapUnits = int64(1) << 40

// capacityScale picks the integer unit of the flow encoding: capacities
// are expressed in 1/scale MB. Whole-MB workloads keep scale 1 — the
// paper's encoding, with capUnits(x, 1) rounding to the nearest MB. When
// any task is smaller than 1 MB a per-task round with a floor of 1 would
// inflate its capacity (a 0.4 MB task became 1 MB, ~2.5x, distorting the
// per-process quotas), so the unit shrinks by powers of two until the
// smallest task spans at least minTaskUnits units, bounding the per-task
// rounding error at ~1.6% instead. The scale is then clamped back so the
// total workload fits in maxCapUnits units, which is what makes the int64
// flow sums overflow-proof no matter how the task sizes are distributed.
func capacityScale(p *Problem) int64 {
	minSize, totalMB := math.Inf(1), 0.0
	for t := range p.Tasks {
		s := p.Tasks[t].SizeMB()
		if s < minSize {
			minSize = s
		}
		totalMB += s
	}
	scale := int64(1)
	if minSize < 1 {
		const minTaskUnits = 32
		for float64(scale)*minSize < minTaskUnits && scale < 1<<24 {
			scale <<= 1
		}
	}
	for scale > 1 && totalMB*float64(scale) > float64(maxCapUnits) {
		scale >>= 1
	}
	return scale
}

// capUnits converts a size in MB to integer flow-capacity units at the
// given scale, rounding to nearest but never below 1 and never above
// maxCapUnits. The upper clamp doubles as the float→int64 conversion
// guard: the comparison happens in float64, where maxCapUnits (2^40) is
// exact, so an astronomically large size can never hit the undefined
// out-of-range conversion.
func capUnits(size float64, scale int64) int64 {
	v := math.Round(size * float64(scale))
	if !(v >= 1) { // also catches NaN
		return 1
	}
	if v > float64(maxCapUnits) {
		return maxCapUnits
	}
	return int64(v)
}

// localityGraph builds the §IV-A bipartite graph from the locality index:
// an edge (p, t) weighted by the co-located data in capacity units
// whenever any input of task t has a replica on process p's node. The
// index's per-process adjacency is already in the graph's insertion order,
// so the build is a pure transcription into one shared backing array carved
// by per-process offsets. Only the flow solvers read it.
func localityGraph(p *Problem, ix *LocalityIndex, scale int64) *bipartite.Graph {
	m, n := p.NumProcs(), len(p.Tasks)
	backing := make([]bipartite.Edge, 0, ix.NumEdges())
	byP := make([][]bipartite.Edge, m)
	for proc := range byP {
		lo := len(backing)
		for _, e := range ix.ProcEdges(proc) {
			backing = append(backing, bipartite.Edge{P: proc, F: e.Task, Weight: capUnits(e.MB, scale)})
		}
		byP[proc] = backing[lo:len(backing):len(backing)]
	}
	return bipartite.NewGraphFromSorted(m, n, byP)
}
