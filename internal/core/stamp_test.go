package core

import (
	"testing"

	"opass/internal/dfs"
)

// dirtyTasks lists the tasks of p the stamp reports dirty, ascending.
func dirtyTasks(st PlanStamp, p *Problem) []int {
	var dirty []int
	for t := range p.Tasks {
		if st.Dirty(p, t) {
			dirty = append(dirty, t)
		}
	}
	return dirty
}

// TestStampDirtyTasks pins the dirty-set derivation: per-chunk epochs mark
// exactly the tasks whose inputs moved, and the zero-value stamp is
// conservatively all-dirty.
func TestStampDirtyTasks(t *testing.T) {
	p, fs := buildSingle(t, 8, 24, 3, dfs.RandomPlacement{})
	st := StampProblem(p)
	if dirty := dirtyTasks(st, p); len(dirty) != 0 {
		t.Fatalf("dirty tasks with no mutation: %v", dirty)
	}

	// Move one replica of task 5's chunk: exactly task 5 dirties (the
	// single-data problem reads each chunk from exactly one task).
	target := p.Tasks[5].Inputs[0].Chunk
	c := fs.Chunk(target)
	var dst int
	for _, n := range fs.LiveNodes() {
		if !c.HostedOn(n) {
			dst = n
			break
		}
	}
	if err := fs.MoveReplica(target, c.Replicas[0], dst); err != nil {
		t.Fatal(err)
	}
	if dirty := dirtyTasks(st, p); len(dirty) != 1 || dirty[0] != 5 {
		t.Fatalf("dirty tasks after moving task 5's chunk: %v, want [5]", dirty)
	}

	if dirty := dirtyTasks(PlanStamp{}, p); len(dirty) != len(p.Tasks) {
		t.Fatalf("zero-value stamp marked %d of %d tasks dirty, want all", len(dirty), len(p.Tasks))
	}
}
