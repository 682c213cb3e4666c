package core

import (
	"slices"
	"testing"

	"opass/internal/bipartite"
	"opass/internal/dfs"
)

func TestWeightedQuotasSkewLoad(t *testing.T) {
	p, _ := buildSingle(t, 4, 40, 51, dfs.RandomPlacement{})
	// Process 0 gets 4x the share of the others: 40 tasks -> ~23 vs ~5-6.
	weights := []float64{4, 1, 1, 1}
	a, err := SingleData{Weights: weights, Seed: 51}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(p); err != nil {
		t.Fatal(err)
	}
	if got := len(a.Lists[0]); got < 18 || got > 26 {
		t.Fatalf("weighted proc 0 got %d tasks, want ~23 (4/7 of 40)", got)
	}
	for i := 1; i < 4; i++ {
		if got := len(a.Lists[i]); got > 9 {
			t.Fatalf("proc %d got %d tasks despite weight 1/7", i, got)
		}
	}
}

func TestWeightedQuotasValidation(t *testing.T) {
	p, _ := buildSingle(t, 4, 8, 52, dfs.RandomPlacement{})
	if _, err := (SingleData{Weights: []float64{1, 2}}).Assign(p); err == nil {
		t.Fatal("wrong weight count must fail")
	}
	if _, err := (SingleData{Weights: []float64{-1, 1, 1, 1}}).Assign(p); err == nil {
		t.Fatal("negative weight must fail")
	}
	if _, err := (SingleData{Weights: []float64{0, 0, 0, 0}}).Assign(p); err == nil {
		t.Fatal("zero-sum weights must fail")
	}
}

func TestZeroWeightProcessGetsNothing(t *testing.T) {
	p, _ := buildSingle(t, 4, 12, 53, dfs.RandomPlacement{})
	a, err := SingleData{Weights: []float64{1, 1, 1, 0}, Seed: 53}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Lists[3]) != 0 {
		t.Fatalf("zero-weight proc got %d tasks", len(a.Lists[3]))
	}
}

func TestDeterministicPlanners(t *testing.T) {
	for _, as := range []Assigner{SingleData{Seed: 5}, MultiData{Seed: 5}, RandomStatic{Seed: 5}} {
		run := func() []int {
			var a *Assignment
			var err error
			if as.Name() == "opass-matching" {
				p := multiProblem(t, 8, 24, 54)
				a, err = as.Assign(p)
			} else {
				p, _ := buildSingle(t, 8, 40, 54, dfs.RandomPlacement{})
				a, err = as.Assign(p)
			}
			if err != nil {
				t.Fatal(err)
			}
			return a.Owner
		}
		x, y := run(), run()
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s not deterministic at task %d", as.Name(), i)
			}
		}
	}
}

func TestKuhnMatchesFlowLocality(t *testing.T) {
	p, _ := buildSingle(t, 32, 320, 55, dfs.RandomPlacement{})
	flow, err := SingleData{Algorithm: bipartite.EdmondsKarp, Seed: 55}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	kuhn, err := SingleData{Algorithm: bipartite.Kuhn, Seed: 55}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := kuhn.Validate(p); err != nil {
		t.Fatal(err)
	}
	if kuhn.PlannedLocalMB != flow.PlannedLocalMB {
		t.Fatalf("kuhn local %v != flow %v", kuhn.PlannedLocalMB, flow.PlannedLocalMB)
	}
}

func TestKuhnFallsBackOnUnequalSizes(t *testing.T) {
	// Tasks of different sizes cannot use the matching fast path; the
	// planner must still produce a valid assignment via the flow solver.
	fs := dfs.New(view{8}, dfs.Config{Seed: 56})
	p := &Problem{ProcNode: []int{0, 1, 2, 3, 4, 5, 6, 7}, FS: fs}
	for i := 0; i < 16; i++ {
		size := float64(32 + 16*(i%3)) // 32, 48, 64 MB
		f, err := fs.CreateChunks(itoa(i), []float64{size})
		if err != nil {
			t.Fatal(err)
		}
		p.Tasks = append(p.Tasks, Task{ID: i, Inputs: []Input{{f.Chunks[0], size}}})
	}
	a, err := SingleData{Algorithm: bipartite.Kuhn, Seed: 56}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestFewerTasksThanProcs(t *testing.T) {
	// 2 tasks on a 4-process cluster: the flow planner must still match
	// both tasks to co-located processes (TotalSize/m would be half a task;
	// the count-based quota keeps the formulation feasible).
	fs := dfs.New(view{4}, dfs.Config{Replication: 2})
	prob := &Problem{ProcNode: []int{0, 1, 2, 3}, FS: fs}
	for i, row := range [][]int{{0, 2}, {1, 3}} {
		f, err := fs.CreateChunksReplicated(itoa(i), []float64{64}, [][]int{row})
		if err != nil {
			t.Fatal(err)
		}
		prob.Tasks = append(prob.Tasks, Task{ID: i, Inputs: []Input{{f.Chunks[0], 64}}})
	}
	a, err := SingleData{}.Assign(prob)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(prob); err != nil {
		t.Fatal(err)
	}
	if a.LocalityFraction() != 1.0 {
		t.Fatalf("locality %v, want 1.0 (both tasks have co-located procs)", a.LocalityFraction())
	}
	if o := a.Owner[0]; o != 0 && o != 2 {
		t.Fatalf("task 0 owned by %d, want 0 or 2", o)
	}
	if o := a.Owner[1]; o != 1 && o != 3 {
		t.Fatalf("task 1 owned by %d, want 1 or 3", o)
	}
}

// TestUnequalSizesKeepTheMBBook: on unequal sizes the repair keeps the MB
// quotas the flow planned under, so no weights and all-ones weights give one
// plan, and no process ends more than one task over its TotalSize/m share.
func TestUnequalSizesKeepTheMBBook(t *testing.T) {
	single := goldenSingleProblems(t)
	for _, name := range []string{"flat-unequal", "racked-unequal"} {
		p := single[name]
		a, err := SingleData{Seed: 3}.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		ones := make([]float64, p.NumProcs())
		for i := range ones {
			ones[i] = 1
		}
		w, err := SingleData{Seed: 3, Weights: ones}.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.Owner, w.Owner) {
			t.Fatalf("%s: no weights and all-ones weights plan differently", name)
		}
		scale := capacityScale(p)
		units := make([]int64, len(p.Tasks))
		var total int64
		for task := range units {
			units[task] = capUnits(p.Tasks[task].SizeMB(), scale)
			total += units[task]
		}
		checkMBQuotas(t, name, a, units, shareQuotas(total, p.NumProcs(), nil))
	}
}
