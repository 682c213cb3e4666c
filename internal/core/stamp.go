package core

import "slices"

// This file is the planner-side half of incremental replanning. A plan
// computed at time T can be kept or repaired in part at time T' as long as
// the caller can tell which of the problem's chunks moved in between;
// per-chunk placement epochs (dfs.FileSystem.ChunkEpoch) provide exactly that signal
// without diffing replica lists. The engine's delta replan (internal/engine)
// is the consumer: it keeps the tasks a PlanStamp reports clean and plans
// the dirty ones cold as a dense sub-problem.

// PlanStamp records the placement epoch of every chunk a problem read at
// plan time. Capture it with StampProblem next to the plan itself; later,
// Dirty compares the live epochs against the stamp to find the tasks whose
// inputs moved.
type PlanStamp struct {
	// epochs holds one epoch per (task, input) in problem order; task t's
	// inputs are epochs[offs[t]:offs[t+1]]. Two flat arrays instead of a map
	// by chunk: the engine re-stamps after every placement event, and both
	// that and Dirty are then straight walks over the problem.
	epochs []uint64
	offs   []int
}

// StampProblem captures the current placement epochs of p's read set.
func StampProblem(p *Problem) PlanStamp {
	var st PlanStamp
	st.Refresh(p)
	return st
}

// Refresh re-captures the stamp for p's current placement in place, reusing
// the stamp's storage.
func (st *PlanStamp) Refresh(p *Problem) {
	// Every task has at least one input: exact for single-data problems.
	st.epochs, st.offs = slices.Grow(st.epochs[:0], len(p.Tasks)), slices.Grow(st.offs[:0], len(p.Tasks)+1)
	for i := range p.Tasks {
		st.offs = append(st.offs, len(st.epochs))
		for _, in := range p.Tasks[i].Inputs {
			st.epochs = append(st.epochs, p.FS.ChunkEpoch(in.Chunk))
		}
	}
	st.offs = append(st.offs, len(st.epochs))
}

// Dirty reports whether task t of p has an input whose placement epoch
// differs from the stamp. A task the stamp does not cover (the stamp is the
// zero value, or the problem gained tasks) or whose input count changed since
// counts as dirty — the conservative answer.
func (st PlanStamp) Dirty(p *Problem, t int) bool {
	inputs := p.Tasks[t].Inputs
	if t+1 >= len(st.offs) || st.offs[t+1]-st.offs[t] != len(inputs) {
		return true
	}
	for i, then := range st.epochs[st.offs[t]:st.offs[t+1]] {
		if then != p.FS.ChunkEpoch(inputs[i].Chunk) {
			return true
		}
	}
	return false
}
