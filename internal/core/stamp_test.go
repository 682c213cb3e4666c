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

// TestStampRefreshAndShapeChanges: Refresh re-captures in place (the engine
// does so after every placement event), and a task the stamp does not
// describe — beyond its range, or with a different input count — is dirty.
func TestStampRefreshAndShapeChanges(t *testing.T) {
	p, fs := buildSingle(t, 8, 24, 3, dfs.RandomPlacement{})
	st := StampProblem(p)
	if _, _, err := fs.Crash(2); err != nil {
		t.Fatal(err)
	}
	if len(dirtyTasks(st, p)) == 0 {
		t.Fatal("crashing a node dirtied no task")
	}
	before := &st.epochs[0]
	st.Refresh(p)
	if dirty := dirtyTasks(st, p); len(dirty) != 0 {
		t.Fatalf("dirty tasks right after Refresh: %v", dirty)
	}
	if &st.epochs[0] != before {
		t.Fatal("Refresh reallocated the stamp for a problem of the same shape")
	}

	// Task 3 gains an input, task 4 loses its only one: both dirty, no others.
	grown := *p
	grown.Tasks = append([]Task(nil), p.Tasks...)
	grown.Tasks[3].Inputs = append(append([]Input(nil), p.Tasks[3].Inputs...), p.Tasks[0].Inputs[0])
	grown.Tasks[4].Inputs = nil
	if dirty := dirtyTasks(st, &grown); len(dirty) != 2 || dirty[0] != 3 || dirty[1] != 4 {
		t.Fatalf("dirty tasks after reshaping tasks 3 and 4: %v, want [3 4]", dirty)
	}
	// A task appended after the stamp was taken is not covered by it.
	grown.Tasks = append(grown.Tasks, p.Tasks[0])
	if !st.Dirty(&grown, len(p.Tasks)) {
		t.Fatal("task beyond the stamp's range reported clean")
	}
}
