package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"opass/internal/bipartite"
	"opass/internal/dfs"
)

// The golden-plan tests lock the planners' Owner output on seeded 64-node
// problems. The single_ek, single_dinic, multi, and dynamic_order entries
// under testdata/ were generated from the pre-index implementation
// (CoLocatedMB probe loops and copy-and-sort adjacency), so a pass here
// proves the locality-index refactor is byte-for-byte behavior-preserving
// on the flow planners and Algorithm 1. single_kuhn, dynamic_order and every
// equal-size repair_guard entry planned by the default solver were re-locked
// when the phased matcher replaced the per-file augmenting search and became
// the default: it picks a different maximum matching of the same size
// (TestGoldenProblemsLocalityParity asserts locality parity with
// Edmonds-Karp on every single-data golden problem). Unequal sizes run
// Dinic by default; its plans there equal Edmonds-Karp's, and
// repair_guard's flat/single_unequal_ek keeps the paper's solver pinned on
// them. flat/single_unequal, flat/single_unequal_ek and racked/single_unequal
// were re-locked when unweighted unequal-size plans moved to the MB repair
// book: the same matched tasks, other random owners. Regenerate with:
//
//	go test ./internal/core -run TestGoldenPlans -update
var updateGolden = flag.Bool("update", false, "rewrite the golden plan file")

// goldenPlans is the serialized form of every locked plan.
type goldenPlans struct {
	// SingleEK/SingleDinic/SingleKuhn are Owner arrays of the single-data
	// planner on a seeded 64-proc x 640-task problem.
	SingleEK    []int `json:"single_ek"`
	SingleDinic []int `json:"single_dinic"`
	SingleKuhn  []int `json:"single_kuhn"`
	// Multi is the Owner array of Algorithm 1 on a seeded 64-proc x 640-task
	// multi-data problem.
	Multi []int `json:"multi"`
	// MultiExact is the exact multi-data planner's Owner array on the same
	// problem.
	MultiExact []int `json:"multi_exact"`
	// DynamicOrder is the exact task sequence the dynamic scheduler serves
	// when only 16 of the 64 processes ask for work — the last three quarters
	// of the job exercises the steal scan.
	DynamicOrder []int `json:"dynamic_order"`
	// Guard holds the Owner arrays of goldenGuardCases: the post-solve
	// repair stages (rack pass, random pass, count and MB accounting) that
	// the five plans above never reach because replicated single-rack data
	// matches almost every task in the solver.
	Guard map[string][]int `json:"repair_guard"`
}

// goldenSingleProblem is the seeded single-data case all golden plans use.
func goldenSingleProblem(t testing.TB) *Problem {
	t.Helper()
	p, _ := buildSingle(t, 64, 640, 42, dfs.RandomPlacement{})
	return p
}

// goldenMultiProblem builds the paper's 30/20/10 MB multi-data workload on
// 64 nodes with 10 tasks per process.
func goldenMultiProblem(t testing.TB) *Problem {
	t.Helper()
	const nodes, perProc = 64, 10
	fs := dfs.New(view{nodes}, dfs.Config{Seed: 42})
	n := nodes * perProc
	inputs := []float64{30, 20, 10}
	sets := make([][]dfs.ChunkID, len(inputs))
	for j, sz := range inputs {
		sizes := make([]float64, n)
		for i := range sizes {
			sizes[i] = sz
		}
		f, err := fs.CreateChunks(fmt.Sprintf("/set%d", j), sizes)
		if err != nil {
			t.Fatal(err)
		}
		sets[j] = f.Chunks
	}
	procNode := make([]int, nodes)
	for i := range procNode {
		procNode[i] = i
	}
	p := &Problem{ProcNode: procNode, FS: fs}
	for i := 0; i < n; i++ {
		task := Task{ID: i}
		for j, sz := range inputs {
			task.Inputs = append(task.Inputs, Input{Chunk: sets[j][i], SizeMB: sz})
		}
		p.Tasks = append(p.Tasks, task)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// goldenRacked is the layout of the repair-guard problems: 32 nodes in 4
// racks, one process per node, one replica per chunk — so per-node chunk
// counts overflow the quotas and about a tenth of the tasks leave the solver
// unmatched, for the rack pass and then the random pass to place.
func goldenRacked(seed int64) (fs *dfs.FileSystem, procNode, nodeRack []int) {
	v := rackedView{32, 4}
	fs = dfs.New(v, dfs.Config{Seed: seed, Placement: dfs.RandomPlacement{}, Replication: 1})
	for i := 0; i < v.n; i++ {
		procNode = append(procNode, i)
		nodeRack = append(nodeRack, v.RackOf(i))
	}
	return fs, procNode, nodeRack
}

// goldenRackedProblem is a single-data problem of 320 chunks (10 per
// process) on the goldenRacked layout; sizeOf gives chunk i's size in MB.
func goldenRackedProblem(t testing.TB, sizeOf func(i int) float64) *Problem {
	t.Helper()
	fs, procNode, nodeRack := goldenRacked(11)
	sizes := make([]float64, 320)
	for i := range sizes {
		sizes[i] = sizeOf(i)
	}
	if _, err := fs.CreateChunks("/data", sizes); err != nil {
		t.Fatal(err)
	}
	p, err := SingleDataProblem(fs, []string{"/data"}, procNode)
	if err != nil {
		t.Fatal(err)
	}
	p.NodeRack = nodeRack
	return p
}

// goldenRackedMultiProblem is the three-input (30/20/10 MB) workload, 320
// tasks on the goldenRacked layout, so Algorithm 1's unmatched tasks reach
// finishAssignment's rack pass with rack edges present.
func goldenRackedMultiProblem(t testing.TB) *Problem {
	t.Helper()
	fs, procNode, nodeRack := goldenRacked(13)
	p := &Problem{FS: fs, ProcNode: procNode, NodeRack: nodeRack}
	inputs := []float64{30, 20, 10}
	for i := 0; i < 320; i++ {
		f, err := fs.CreateChunks(fmt.Sprintf("/t%d", i), inputs)
		if err != nil {
			t.Fatal(err)
		}
		task := Task{ID: i}
		for j, sz := range inputs {
			task.Inputs = append(task.Inputs, Input{Chunk: f.Chunks[j], SizeMB: sz})
		}
		p.Tasks = append(p.Tasks, task)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// goldenSingleProblems are the single-data problems the golden plans are
// locked on: the replicated 64-node case, and the unreplicated racked layout
// with equal and unequal (32/48/64 MB) chunk sizes, each also with its rack
// tier dropped ("flat").
func goldenSingleProblems(t testing.TB) map[string]*Problem {
	equal := func(int) float64 { return 64 }
	unequal := func(i int) float64 { return float64(32 + 16*(i%3)) }
	flat, flatUnequal := goldenRackedProblem(t, equal), goldenRackedProblem(t, unequal)
	flat.NodeRack, flatUnequal.NodeRack = nil, nil
	return map[string]*Problem{
		"replicated":     goldenSingleProblem(t),
		"racked":         goldenRackedProblem(t, equal),
		"racked-unequal": goldenRackedProblem(t, unequal),
		"flat":           flat,
		"flat-unequal":   flatUnequal,
	}
}

// goldenGuardCases names every (planner, problem) pair locked under
// "repair_guard". Weights carry a zero and fractional entries so the MB
// ledger sees an ineligible process and non-integral shares.
func goldenGuardCases(t testing.TB) map[string]func() (*Assignment, error) {
	weights := func(m int) []float64 {
		w := make([]float64, m)
		for i := range w {
			w[i] = []float64{1, 0.5, 2.25, 0.75}[i%4]
		}
		w[5] = 0
		return w
	}
	// biased scales base (nil: all ones) by a per-node bias, giving each
	// process the bias of its node: the weights a cluster scheduler hands a
	// planner to steer it off hot nodes.
	biased := func(p *Problem, base []float64) []float64 {
		w := make([]float64, p.NumProcs())
		for i, node := range p.ProcNode {
			w[i] = []float64{1, 0.4, 0.85}[node%3]
			if base != nil {
				w[i] *= base[i]
			}
		}
		return w
	}
	single := goldenSingleProblems(t)
	racked, rackedUnequal := single["racked"], single["racked-unequal"]
	flat, flatUnequal := single["flat"], single["flat-unequal"]
	multi := goldenRackedMultiProblem(t)
	sp := single["replicated"]
	run := func(a Assigner, p *Problem) func() (*Assignment, error) {
		return func() (*Assignment, error) { return a.Assign(p) }
	}
	return map[string]func() (*Assignment, error){
		"racked/single_ek":            run(SingleData{Seed: 3, Algorithm: bipartite.EdmondsKarp}, racked),
		"racked/single_kuhn":          run(SingleData{Seed: 3, Algorithm: bipartite.Kuhn}, racked),
		"racked/multi_on_single":      run(MultiData{Seed: 3}, racked),
		"racked/multi":                run(MultiData{Seed: 3}, multi),
		"racked/multi_exact_weighted": run(MultiExact{Seed: 3, Weights: biased(multi, nil)}, multi),
		"racked/single_weighted":      run(SingleData{Seed: 3, Weights: weights(32)}, racked),
		"racked/single_nodebias":      run(SingleData{Seed: 3, Weights: biased(racked, nil)}, racked),
		"racked/single_unequal":       run(SingleData{Seed: 3}, rackedUnequal),
		"racked/single_unequal_w":     run(SingleData{Seed: 3, Weights: weights(32)}, rackedUnequal),
		"flat/single_unreplicated":    run(SingleData{Seed: 3}, flat),
		"flat/single_weighted":        run(SingleData{Seed: 3, Weights: weights(32)}, flat),
		"flat/single_unequal":         run(SingleData{Seed: 3}, flatUnequal),
		"flat/single_unequal_ek":      run(SingleData{Seed: 3, Algorithm: bipartite.EdmondsKarp}, flatUnequal),
		"flat/single_unequal_w":       run(SingleData{Seed: 3, Weights: weights(32)}, flatUnequal),
		"replicated/weighted":         run(SingleData{Seed: 7, Weights: weights(64)}, sp),
		"replicated/nodebias":         run(SingleData{Seed: 7, Weights: biased(sp, nil)}, sp),
		"replicated/weighted_bias":    run(SingleData{Seed: 7, Weights: biased(sp, weights(64))}, sp),
		"replicated/random_static":    run(RandomStatic{Seed: 7}, sp),
	}
}

// computeGoldenPlans runs every locked planner on the seeded problems.
func computeGoldenPlans(t testing.TB) *goldenPlans {
	t.Helper()
	sp := goldenSingleProblem(t)
	out := &goldenPlans{}
	for _, c := range []struct {
		algo bipartite.Algorithm
		dst  *[]int
	}{
		{bipartite.EdmondsKarp, &out.SingleEK},
		{bipartite.Dinic, &out.SingleDinic},
		{bipartite.Kuhn, &out.SingleKuhn},
	} {
		a, err := (SingleData{Algorithm: c.algo, Seed: 7}).Assign(sp)
		if err != nil {
			t.Fatal(err)
		}
		*c.dst = a.Owner
	}
	mp := goldenMultiProblem(t)
	ma, err := (MultiData{Seed: 5}).Assign(mp)
	if err != nil {
		t.Fatal(err)
	}
	out.Multi = ma.Owner
	me, err := (MultiExact{Seed: 5}).Assign(mp)
	if err != nil {
		t.Fatal(err)
	}
	out.MultiExact = me.Owner

	// Dynamic drain: only 16 of the 64 processes ask for work, so after
	// their own lists empty the remaining ~480 tasks all go through the
	// steal scan (rule 2 of §IV-D).
	base, err := (SingleData{Seed: 7}).Assign(sp)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewDynamicScheduler(sp, base)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		task, ok := s.Next((i * 7) % 16)
		if !ok {
			break
		}
		out.DynamicOrder = append(out.DynamicOrder, task)
	}
	out.Guard = make(map[string][]int)
	for name, plan := range goldenGuardCases(t) {
		a, err := plan()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out.Guard[name] = a.Owner
	}
	return out
}

// TestGoldenProblemsLocalityParity holds the default solver to the paper's
// on every single-data golden problem: tie-breaks may differ from
// Edmonds-Karp's, the data read locally and the number of tasks the solver
// matched may not.
func TestGoldenProblemsLocalityParity(t *testing.T) {
	for name, p := range goldenSingleProblems(t) {
		plan := func(algo bipartite.Algorithm) (localMB float64, matched int) {
			a, err := SingleData{Seed: 3, Algorithm: algo}.Assign(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, m := range a.Matched {
				if m {
					matched++
				}
			}
			return a.PlannedLocalMB, matched
		}
		defMB, defMatched := plan(bipartite.Kuhn)
		ekMB, ekMatched := plan(bipartite.EdmondsKarp)
		if defMB != ekMB || defMatched != ekMatched {
			t.Errorf("%s: default plans %v MB local over %d matched tasks, Edmonds-Karp %v MB over %d",
				name, defMB, defMatched, ekMB, ekMatched)
		}
	}
}

func goldenPath() string { return filepath.Join("testdata", "golden_plans.json") }

func TestGoldenPlans(t *testing.T) {
	got := computeGoldenPlans(t)
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath())
		return
	}
	blob, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want goldenPlans
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	type planCase struct {
		name      string
		got, want []int
	}
	cases := []planCase{
		{"single-data/edmonds-karp", got.SingleEK, want.SingleEK},
		{"single-data/dinic", got.SingleDinic, want.SingleDinic},
		{"single-data/kuhn", got.SingleKuhn, want.SingleKuhn},
		{"multi-data", got.Multi, want.Multi},
		{"multi-data/exact", got.MultiExact, want.MultiExact},
		{"dynamic-order", got.DynamicOrder, want.DynamicOrder},
	}
	if len(got.Guard) != len(want.Guard) {
		t.Errorf("repair guard has %d plans, golden file has %d", len(got.Guard), len(want.Guard))
	}
	for name, plan := range got.Guard {
		cases = append(cases, planCase{"repair-guard/" + name, plan, want.Guard[name]})
	}
	for _, c := range cases {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: plan length %d, want %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s: entry %d = %d, want %d (first mismatch)", c.name, i, c.got[i], c.want[i])
				break
			}
		}
	}
}
