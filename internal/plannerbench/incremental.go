package plannerbench

import (
	"fmt"

	"opass/internal/core"
	"opass/internal/dfs"
	"opass/internal/engine"
)

// This file holds the incremental-replanning benchmark rig: the same seeded
// single-data workload as BuildSingle, planned cold, then hit by a single
// permanent DataNode loss. The contrast pair is the engine's two answers to
// that event — a whole-backlog re-match (pre-incremental behavior) versus
// the O(delta) replan that re-matches only the tasks the crash could have
// moved. The speedup between them is the payoff the per-chunk placement
// epochs buy.

// ReplanVictim is the node every replan rig crashes. Node 1 rather than 0
// so the rig also exercises non-trivial process indices in the splice.
const ReplanVictim = 1

// ReplanRig is a planned workload frozen just after a node loss, ready for
// repeated replans of the full backlog (cold) or the affected slice
// (delta). Each Replan* call splices into a fresh copy of the cold
// backlog, so calls are independent and repeatable.
type ReplanRig struct {
	Prob  *core.Problem
	FS    *dfs.FileSystem // the store Prob reads, after the crash
	Lists [][]int         // the cold assignment's per-process dispatch lists
	Since uint64          // FS.Epoch() before the crash
}

// BuildReplanRig builds the seeded workload at the given scale, plans it
// cold, notes the placement epoch, and crashes ReplanVictim — bumping the
// epochs of every chunk that lost a replica, exactly what a namenode
// processing a DataNode loss does.
func BuildReplanRig(procs int) (*ReplanRig, error) {
	rig, err := singleRig(procs)
	if err != nil {
		return nil, err
	}
	p := rig.Prob
	a, err := core.SingleData{Seed: 1}.Assign(p)
	if err != nil {
		return nil, err
	}
	since := rig.FS.Epoch()
	if _, _, err := rig.FS.Crash(ReplanVictim); err != nil {
		return nil, err
	}
	return &ReplanRig{Prob: p, FS: rig.FS, Lists: a.Lists, Since: since}, nil
}

// weight excludes the dead node's process from new work, as the engine's
// fault hooks do.
func (r *ReplanRig) weight(node int) float64 {
	if node == ReplanVictim {
		return 0
	}
	return 1
}

// ReplanCold re-matches the entire backlog against the post-crash
// placement — the pre-incremental baseline.
func (r *ReplanRig) ReplanCold() error {
	src := engine.NewListSource(r.Lists)
	spliced, _, err := engine.ReplanBacklogDelta(r.Prob, r.FS, src, make([]bool, r.Prob.NumProcs()), r.weight, 1, -1, r.Since)
	if err != nil {
		return err
	}
	if !spliced {
		return fmt.Errorf("plannerbench: cold replan spliced nothing")
	}
	return nil
}

// ReplanDelta re-matches only the tasks the crash could have moved and
// returns how many that was.
func (r *ReplanRig) ReplanDelta() (int, error) {
	src := engine.NewListSource(r.Lists)
	spliced, rematched, err := engine.ReplanBacklogDelta(
		r.Prob, r.FS, src, make([]bool, r.Prob.NumProcs()), r.weight, 1, ReplanVictim, r.Since)
	if err != nil {
		return 0, err
	}
	if !spliced {
		return 0, fmt.Errorf("plannerbench: delta replan spliced nothing")
	}
	return rematched, nil
}
