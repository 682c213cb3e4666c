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

// TestMultiExactWeightsSetTaskCounts: MultiExact's weights are quota
// weights, as SingleData's are — every process owns exactly its
// weightedTaskQuotas count, and a zero-weight process nothing, also on an
// unreplicated placement where the min-cost and random repairs place tasks.
func TestMultiExactWeightsSetTaskCounts(t *testing.T) {
	unreplicated := benchSpec(8, 64, []float64{30, 20, 10}, 24)
	for i := range unreplicated.rows {
		unreplicated.rows[i] = unreplicated.rows[i][:1]
	}
	weights := downWeighted(8, 0)
	weights[1], weights[2] = 0.25, 2
	for name, p := range map[string]*Problem{
		"multi":        multiProblem(t, 8, 64, 24),
		"unreplicated": unreplicated.csrBacked(),
	} {
		a, err := MultiExact{Seed: 24, Weights: weights}.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		checkCountQuotas(t, name, p, a, weightedTaskQuotas(len(p.Tasks), p.NumProcs(), weights))
		if len(a.Lists[0]) != 0 {
			t.Fatalf("%s: zero-weight process 0 owns tasks %v", name, a.Lists[0])
		}
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
		if _, err := (MultiExact{Weights: tc.weights}).Assign(p); err == nil {
			t.Errorf("MultiExact accepted %s weights %v", tc.name, tc.weights)
		}
	}
}
