package core

import (
	"math"
	"testing"

	"opass/internal/cluster"
	"opass/internal/dfs"
)

// weightRig builds a single-data problem with one process per node.
func weightRig(t *testing.T, nodes, chunksPerProc int, seed int64) *Problem {
	t.Helper()
	topo := cluster.New(nodes, cluster.Marmot())
	fs := dfs.New(topo, dfs.Config{Seed: seed})
	if _, err := fs.Create("/data", float64(nodes*chunksPerProc)*64); err != nil {
		t.Fatal(err)
	}
	procs := make([]int, nodes)
	for i := range procs {
		procs[i] = i
	}
	p, err := SingleDataProblem(fs, []string{"/data"}, procs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func ownerCounts(p *Problem, a *Assignment) []int {
	counts := make([]int, p.NumProcs())
	for _, o := range a.Owner {
		counts[o]++
	}
	return counts
}

// downWeighted is all ones but w at process 0.
func downWeighted(m int, w float64) []float64 {
	weights := make([]float64, m)
	for i := range weights {
		weights[i] = 1
	}
	weights[0] = w
	return weights
}

func TestSingleDataWeightShiftsQuota(t *testing.T) {
	p := weightRig(t, 8, 8, 21)
	base, err := SingleData{Seed: 21}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := SingleData{Seed: 21, Weights: downWeighted(8, 0.25)}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := weighted.Validate(p); err != nil {
		t.Fatalf("weighted assignment invalid: %v", err)
	}
	bc, wc := ownerCounts(p, base), ownerCounts(p, weighted)
	if wc[0] >= bc[0] {
		t.Fatalf("weighting process 0 at 0.25 left it owning %d tasks (unweighted %d)", wc[0], bc[0])
	}
}

func TestMultiDataWeightDivertsContestedTasks(t *testing.T) {
	p := weightRig(t, 8, 8, 24)
	base, err := MultiData{Seed: 24}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := MultiData{Seed: 24, Weights: downWeighted(8, 0.1)}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := weighted.Validate(p); err != nil {
		t.Fatalf("weighted multi-data assignment invalid: %v", err)
	}
	bc, wc := ownerCounts(p, base), ownerCounts(p, weighted)
	if wc[0] > bc[0] {
		t.Fatalf("weighting process 0 at 0.1 grew it to %d tasks (unweighted %d)", wc[0], bc[0])
	}
}

// TestWeightsValidation: both planners reject the same malformed vectors.
func TestWeightsValidation(t *testing.T) {
	p := weightRig(t, 4, 2, 23)
	for _, tc := range []struct {
		name    string
		weights []float64
	}{
		{"NaN", []float64{1, math.NaN(), 1, 1}},
		{"Inf", []float64{1, math.Inf(1), 1, 1}},
		{"negative", []float64{1, -0.5, 1, 1}},
		{"wrong length", []float64{1, 1}},
		{"zero sum", []float64{0, 0, 0, 0}},
		{"infinite sum", []float64{math.MaxFloat64, math.MaxFloat64, 0, 0}},
	} {
		if _, err := (SingleData{Weights: tc.weights}).Assign(p); err == nil {
			t.Errorf("SingleData accepted %s weights %v", tc.name, tc.weights)
		}
		if _, err := (MultiData{Weights: tc.weights}).Assign(p); err == nil {
			t.Errorf("MultiData accepted %s weights %v", tc.name, tc.weights)
		}
	}
}
