package core

import (
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
