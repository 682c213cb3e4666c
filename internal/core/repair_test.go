package core

import (
	"slices"
	"testing"

	"opass/internal/dfs"
)

// TestWeightedRepairSubMBTasks pins the MB ledger's units. Sub-MB tasks put
// the flow encoding at a capacity scale above 1; with quotas in capacity
// units and loads in MB every process looked permanently under quota and
// the largest-quota process took every repaired task. No task has a
// locality edge here, so the ledger alone decides the plan.
func TestWeightedRepairSubMBTasks(t *testing.T) {
	const procs, tasks = 4, 100
	fs := dfs.New(view{2 * procs}, dfs.Config{Seed: 1})
	sizes := make([]float64, tasks)
	replicas := make([][]int, tasks)
	for i := range sizes {
		sizes[i] = 0.5
		replicas[i] = []int{procs + i%procs} // nodes that run no process
	}
	if _, err := fs.CreateChunksReplicated("/small", sizes, replicas); err != nil {
		t.Fatal(err)
	}
	p, err := SingleDataProblem(fs, []string{"/small"}, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := SingleData{Weights: []float64{1, 2, 3, 4}}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{10, 20, 30, 40} {
		if got := len(a.Lists[i]); got != want {
			t.Errorf("process %d owns %d tasks, want %d", i, got, want)
		}
	}
}

// TestRackRepairTieGoesToLowerRank: two tasks no process holds, each with
// replicas on the process-less nodes 2 (rack 1) and 3 (rack 0), so process 1
// (rack 1) and process 0 (rack 0) are rack-local candidates with the same MB
// and, before the first is placed, the same headroom. Rack rows are in
// touch order, which puts process 1 first; the rack pass must still give
// the first task to the lower rank, whichever planner solved the node tier.
func TestRackRepairTieGoesToLowerRank(t *testing.T) {
	p := &Problem{
		ProcNode: []int{0, 1},
		NodeRack: []int{0, 1, 1, 0},
		Tasks: []Task{
			{ID: 0, Inputs: []Input{{Chunk: 0, SizeMB: 64}}},
			{ID: 1, Inputs: []Input{{Chunk: 1, SizeMB: 64}}},
		},
		FS: &Layout{RepOff: []int{0, 2, 4}, Reps: []int{2, 3, 2, 3}},
	}
	ix := NewLocalityIndex(p)
	first := ix.TaskRackEdges(0)[0].Proc
	ix.Release()
	if first != 1 {
		t.Fatalf("task 0's rack row starts at process %d; the test needs the higher rank first", first)
	}
	for _, as := range []Assigner{SingleData{}, MultiData{}, MultiExact{}} {
		a, err := as.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{0, 1}; !slices.Equal(a.Owner, want) {
			t.Errorf("%s: owners %v, want %v (the tie goes to the lower rank)", as.Name(), a.Owner, want)
		}
	}
}
