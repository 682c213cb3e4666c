package core

import (
	"testing"

	"opass/internal/dfs"
)

// TestAlgorithm1Figure6 reconstructs the Figure 6 walk-through of §IV-C
// with an explicit co-location table (every table cell becomes one
// single-replica input on that process's node). The two behaviours the paper narrates must both occur:
//
//   - "task t4 has the highest priority to be assigned to process P0
//     because there is 40 MB of data associated with t4 that can be
//     accessed locally by P0" — the largest entry wins the first proposal;
//   - "a re-assignment event happening on task t5: t5 is already assigned
//     to p2, however when p3 begins to choose its first task... it has a
//     larger matching value, and we cancel the assignment for p2 on t5 and
//     reassign t5 to p3."
func TestAlgorithm1Figure6(t *testing.T) {
	// m[proc][task] in MB; 0 = no co-located data.
	table := [4][8]float64{
		//      t0  t1  t2  t3  t4  t5  t6  t7
		/*p0*/ {10, 20, 0, 0, 40, 0, 15, 0},
		/*p1*/ {25, 0, 30, 0, 0, 0, 0, 10},
		/*p2*/ {0, 0, 20, 35, 0, 30, 0, 5},
		/*p3*/ {0, 15, 0, 0, 20, 45, 0, 25},
	}
	const procs, tasks = 4, 8

	// Realize the table: chunk k (created in order) lives only on the node
	// of the process whose cell it encodes.
	type cell struct {
		proc, task int
		mb         float64
	}
	var cells []cell
	for p := 0; p < procs; p++ {
		for task := 0; task < tasks; task++ {
			if table[p][task] > 0 {
				cells = append(cells, cell{proc: p, task: task, mb: table[p][task]})
			}
		}
	}
	fs := dfs.New(view{procs}, dfs.Config{Replication: 1})
	prob := &Problem{ProcNode: []int{0, 1, 2, 3}, FS: fs}
	taskInputs := make([][]Input, tasks)
	for i, c := range cells {
		f, err := fs.CreateChunksReplicated(itoa(i), []float64{c.mb}, [][]int{{c.proc}})
		if err != nil {
			t.Fatal(err)
		}
		taskInputs[c.task] = append(taskInputs[c.task], Input{Chunk: f.Chunks[0], SizeMB: c.mb})
	}
	for task := 0; task < tasks; task++ {
		prob.Tasks = append(prob.Tasks, Task{ID: task, Inputs: taskInputs[task]})
	}
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	// The constructed problem must reproduce the table exactly.
	for p := 0; p < procs; p++ {
		for task := 0; task < tasks; task++ {
			if got := prob.CoLocatedMB(p, task); got != table[p][task] {
				t.Fatalf("m[p%d][t%d] = %v, want %v", p, task, got, table[p][task])
			}
		}
	}

	a, err := MultiData{}.Assign(prob)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(prob); err != nil {
		t.Fatal(err)
	}

	// Figure 6(a): t4 goes to p0 (its 40 MB is p0's largest affinity).
	if a.Owner[4] != 0 {
		t.Fatalf("t4 owned by p%d, want p0 (highest priority)", a.Owner[4])
	}
	// Figure 6(b): t5 ends up with p3 (45 MB beats p2's 30 MB) even though
	// p2 claims it first in proposal order.
	if a.Owner[5] != 3 {
		t.Fatalf("t5 owned by p%d, want p3 (reassignment)", a.Owner[5])
	}
	// Equal task counts: two per process.
	for p, list := range a.Lists {
		if len(list) != 2 {
			t.Fatalf("p%d owns %d tasks, want 2", p, len(list))
		}
	}
	// Every assignment with positive affinity is stable in the §IV-C sense:
	// no task is held by a process with strictly less co-located data than
	// a process that still wanted it at the end (checked pairwise against
	// the final owner's value, mirroring lines 11-13 of Algorithm 1).
	for task := 0; task < tasks; task++ {
		owner := a.Owner[task]
		ownerVal := prob.CoLocatedMB(owner, task)
		for p := 0; p < procs; p++ {
			if p == owner || prob.CoLocatedMB(p, task) <= ownerVal {
				continue
			}
			// A process with higher affinity must be full with tasks it
			// values at least as much as this one.
			for _, other := range a.Lists[p] {
				if prob.CoLocatedMB(p, other) < prob.CoLocatedMB(p, task) {
					t.Fatalf("unstable: p%d holds t%d (%v MB) but prefers t%d (%v MB) owned by p%d (%v MB)",
						p, other, prob.CoLocatedMB(p, other), task, prob.CoLocatedMB(p, task), owner, ownerVal)
				}
			}
		}
	}
}
