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
	"sync"

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
			// maxCapUnits MB is the largest size the flow encoding holds
			// exactly at scale 1; bounding every input there also keeps
			// any sum of sizes finite. The negated test rejects NaN.
			if !(in.SizeMB > 0 && in.SizeMB <= float64(maxCapUnits)) {
				return fmt.Errorf("core: task %d input chunk %d has size %v, want (0, %d] MB", i, in.Chunk, in.SizeMB, maxCapUnits)
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

// MultiInput reports whether any task reads more than one input: the shape
// that takes the multi-data planner (MultiExact) instead of the single-data
// flow formulation.
func (p *Problem) MultiInput() bool {
	for i := range p.Tasks {
		if len(p.Tasks[i].Inputs) > 1 {
			return true
		}
	}
	return false
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
	// the planner's solver (flow network, matcher, MultiExact's matching and
	// min-cost repair, Algorithm 1)
	// as opposed to the repair stages that home the tasks it left unmatched
	// (see finishAssignment). It is observability only — the matched
	// fraction is how far the placement is from supporting a full matching.
	// Planners with no solver/repair split (the baselines) leave it nil.
	Matched []bool

	// buf is the pooled storage a planner carved Owner, Lists and Matched
	// from; nil for an assignment built by hand.
	buf      *answerBuf
	released bool
}

// answerBuf is one planner answer's storage, recycled through answerPool:
// the owner vector, the lists' backing, headers and offsets, and the matched
// flags. Like indexBuf, every array is regrown from length zero and its
// stale contents are overwritten before they are read.
type answerBuf struct {
	owner   []int
	flat    []int
	lists   [][]int
	off     []int
	matched []bool
}

var answerPool = sync.Pool{New: func() any { return new(answerBuf) }}

// takeAnswer draws an answer buffer whose owner vector has one (stale) slot
// per task of an n-task plan.
func takeAnswer(n int) *answerBuf {
	b := answerPool.Get().(*answerBuf)
	b.owner = slices.Grow(b.owner[:0], n)[:n]
	return b
}

// Release returns the assignment's Owner, Lists and Matched to the package
// pool for the next plan. Like LocalityIndex.Release it is optional: an
// assignment that is simply dropped is garbage-collected. The caller must be
// the sole user of the assignment and of every slice read from it; after
// Release they are invalid. Releasing twice panics; releasing a nil
// assignment, or one built by hand, only clears it.
func (a *Assignment) Release() {
	if a == nil {
		return
	}
	if a.released {
		panic("core: Assignment.Release called twice")
	}
	a.released = true
	if a.buf != nil {
		answerPool.Put(a.buf)
	}
	a.Owner, a.Lists, a.Matched, a.buf = nil, nil, nil, nil
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

// Assigner is a task-assignment strategy: Opass planners and baselines.
type Assigner interface {
	// Name identifies the strategy in reports ("opass-flow", "rank-static"...).
	Name() string
	// Assign computes a complete assignment for the problem.
	Assign(p *Problem) (*Assignment, error)
}

// AssignerFor is the one strategy table: "opass" is the paper's planner
// (OpassPlanner with equal shares: SingleData for single-input tasks;
// MultiExact, the exact solution of the problem Algorithm 1 approximates,
// when any task has several), "rank" and "random" the locality-oblivious
// baselines. "greedy", the retired §V-C2 heuristic's name, is one more
// label for "opass": the Assigner's Name says which planner ran. The error
// for any other name carries no package prefix, so the facade and the
// service can each put their own in front of it.
func AssignerFor(strategy string, seed int64, multi bool) (Assigner, error) {
	switch strategy {
	case "opass", "greedy":
		return OpassPlanner(seed, nil, multi), nil
	case "rank":
		return RankStatic{}, nil
	case "random":
		return RandomStatic{Seed: seed}, nil
	default:
		return nil, fmt.Errorf("unknown strategy %q", strategy)
	}
}

// OpassPlanner is the one place an Opass plan picks its solver: SingleData
// for single-input problems, MultiExact when any task has several inputs.
// weights, nil or valid for checkWeights, skew both the same way — each
// process's share of the tasks ("load capacity", §IV-D), zero excluding it.
func OpassPlanner(seed int64, weights []float64, multi bool) Assigner {
	if multi {
		return MultiExact{Seed: seed, Weights: weights}
	}
	return SingleData{Seed: seed, Weights: weights}
}

// ContextAssigner is implemented by planners whose Assign supports
// cooperative cancellation: the planner periodically polls ctx (inside its
// flow loop, proposal rounds, and index build) and returns ctx's error
// instead of running a doomed plan to completion. The heavy planners
// (SingleData, MultiExact, MultiData) implement it; the O(n) baselines do
// not need to.
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

// checkWeights validates the per-process weight vector both Opass planners
// take: nil, or one finite, non-negative weight per process with a
// positive, finite sum. The bounds are what the quota arithmetic needs — an
// infinite weight or sum would turn a share into int64(NaN) or zero every
// share.
func checkWeights(p *Problem, weights []float64) error {
	if weights == nil {
		return nil
	}
	if len(weights) != p.NumProcs() {
		return fmt.Errorf("core: %d weights for %d processes", len(weights), p.NumProcs())
	}
	var sum float64
	for i, w := range weights {
		if w < 0 {
			return fmt.Errorf("core: weight[%d] = %v must be non-negative", i, w)
		}
		sum += w
	}
	// A NaN or infinite weight, or finite ones past the float range, leave
	// the sum NaN or infinite.
	if !(sum > 0) || math.IsInf(sum, 1) {
		return fmt.Errorf("core: weights sum to %v, want a positive finite total", sum)
	}
	return nil
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
// capacity units. Problem.Validate holds every input to maxCapUnits MB, so
// a single-input task fits at scale 1; capacityScale clamps the unit so the
// problem's aggregate size stays at or below it, and capUnits saturates
// individual conversions at it, so any sum of fewer than 2^23 capacities —
// source-arc totals, per-process quotas, flow bottlenecks — provably stays
// below 2^63 on every platform. (The bound matters only for absurd inputs: at 2^40 sub-MB
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
