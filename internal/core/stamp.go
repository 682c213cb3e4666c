package core

import "opass/internal/dfs"

// This file is the planner-side half of incremental replanning. A plan
// computed at time T can be kept or repaired in part at time T' as long as
// the caller can tell which of the problem's chunks moved in between;
// per-chunk placement epochs (dfs.Chunk.Epoch) provide exactly that signal
// without diffing replica lists. The engine's delta replan (internal/engine)
// is the consumer: it keeps the tasks a PlanStamp reports clean and plans
// the dirty ones cold as a dense sub-problem.

// PlanStamp records the placement epoch of every chunk a problem read at
// plan time. Capture it with StampProblem next to the plan itself; later,
// Dirty compares the live epochs against the stamp to find the tasks whose
// inputs moved.
type PlanStamp struct {
	epochs map[dfs.ChunkID]uint64
}

// StampProblem captures the current placement epochs of p's read set.
func StampProblem(p *Problem) PlanStamp {
	st := PlanStamp{epochs: make(map[dfs.ChunkID]uint64)}
	for i := range p.Tasks {
		for _, in := range p.Tasks[i].Inputs {
			if _, ok := st.epochs[in.Chunk]; !ok {
				st.epochs[in.Chunk] = p.FS.Chunk(in.Chunk).Epoch()
			}
		}
	}
	return st
}

// Dirty reports whether task t of p has an input whose placement epoch
// differs from the stamp. A chunk absent from the stamp (the problem gained
// inputs, or the stamp is the zero value) counts as dirty — the
// conservative answer.
func (st PlanStamp) Dirty(p *Problem, t int) bool {
	for _, in := range p.Tasks[t].Inputs {
		then, ok := st.epochs[in.Chunk]
		if !ok || then != p.FS.Chunk(in.Chunk).Epoch() {
			return true
		}
	}
	return false
}
