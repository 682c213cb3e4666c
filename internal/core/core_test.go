package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"opass/internal/bipartite"
	"opass/internal/dfs"
)

type view struct{ n int }

func (v view) NumNodes() int    { return v.n }
func (v view) RackOf(i int) int { return 0 }

// buildSingle creates an n-node cluster, a dataset of chunks chunks placed
// by pol, and a single-data problem with one process per node.
func buildSingle(t testing.TB, nodes, chunks int, seed int64, pol dfs.Placement) (*Problem, *dfs.FileSystem) {
	t.Helper()
	fs := dfs.New(view{nodes}, dfs.Config{Seed: seed, Placement: pol})
	if _, err := fs.Create("/data", float64(chunks)*64); err != nil {
		t.Fatal(err)
	}
	procNode := make([]int, nodes)
	for i := range procNode {
		procNode[i] = i
	}
	p, err := SingleDataProblem(fs, []string{"/data"}, procNode)
	if err != nil {
		t.Fatal(err)
	}
	return p, fs
}

func TestSingleDataFullMatchingOnEvenPlacement(t *testing.T) {
	p, _ := buildSingle(t, 8, 80, 1, dfs.RoundRobinPlacement{})
	a, err := SingleData{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(p); err != nil {
		t.Fatal(err)
	}
	if a.LocalityFraction() != 1.0 {
		t.Fatalf("locality = %v, want 1.0 under even placement", a.LocalityFraction())
	}
	for proc, list := range a.Lists {
		if len(list) != 10 {
			t.Fatalf("proc %d got %d tasks, want 10", proc, len(list))
		}
	}
}

func TestSingleDataBeatsRankStatic(t *testing.T) {
	p, _ := buildSingle(t, 16, 160, 2, dfs.RandomPlacement{})
	opass, err := SingleData{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	rank, err := RankStatic{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if opass.LocalityFraction() <= rank.LocalityFraction() {
		t.Fatalf("opass locality %v not better than rank %v",
			opass.LocalityFraction(), rank.LocalityFraction())
	}
	// §III-A: with m=16 and r=3 a random assignment reads ~3/16 locally;
	// Opass should exceed 90% here.
	if opass.LocalityFraction() < 0.9 {
		t.Fatalf("opass locality %v, want >= 0.9", opass.LocalityFraction())
	}
	if rank.LocalityFraction() > 0.5 {
		t.Fatalf("rank-static locality %v suspiciously high", rank.LocalityFraction())
	}
}

func TestSingleDataRejectsMultiInputTasks(t *testing.T) {
	p, fs := buildSingle(t, 4, 8, 3, dfs.RandomPlacement{})
	locs, _ := fs.BlockLocations("/data")
	p.Tasks[0].Inputs = append(p.Tasks[0].Inputs, Input{Chunk: locs[1].Chunk, SizeMB: 64})
	if _, err := (SingleData{}).Assign(p); err == nil {
		t.Fatal("expected error for multi-input task")
	}
}

func TestRankStaticIntervals(t *testing.T) {
	p, _ := buildSingle(t, 4, 12, 4, dfs.RandomPlacement{})
	a, err := RankStatic{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	// Process i owns exactly [i*3, (i+1)*3).
	for tsk, o := range a.Owner {
		if want := tsk / 3; o != want {
			t.Fatalf("task %d owned by %d, want %d", tsk, o, want)
		}
	}
}

func TestRandomStaticEqualCounts(t *testing.T) {
	p, _ := buildSingle(t, 5, 23, 5, dfs.RandomPlacement{})
	a, err := RandomStatic{Seed: 7}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(p); err != nil {
		t.Fatal(err)
	}
	// 23 tasks over 5 procs: counts must be {5,5,5,4,4}.
	for proc, list := range a.Lists {
		want := 4
		if proc < 23%5 {
			want = 5
		}
		if len(list) != want {
			t.Fatalf("proc %d got %d tasks, want %d", proc, len(list), want)
		}
	}
}

func TestValidateCatchesBadProblems(t *testing.T) {
	fs := dfs.New(view{4}, dfs.Config{Seed: 1})
	fs.Create("/a", 64)
	cases := []*Problem{
		{ProcNode: nil, Tasks: []Task{{ID: 0, Inputs: []Input{{0, 64}}}}, FS: fs},
		{ProcNode: []int{0}, Tasks: nil, FS: fs},
		{ProcNode: []int{0}, Tasks: []Task{{ID: 1, Inputs: []Input{{0, 64}}}}, FS: fs},
		{ProcNode: []int{0}, Tasks: []Task{{ID: 0}}, FS: fs},
		{ProcNode: []int{0}, Tasks: []Task{{ID: 0, Inputs: []Input{{0, -4}}}}, FS: fs},
		{ProcNode: []int{0}, Tasks: []Task{{ID: 0, Inputs: []Input{{0, math.NaN()}}}}, FS: fs},
		{ProcNode: []int{0}, Tasks: []Task{{ID: 0, Inputs: []Input{{0, 1e308}}}, {ID: 1, Inputs: []Input{{0, 1e308}}}}, FS: fs},
		{ProcNode: []int{0}, Tasks: []Task{{ID: 0, Inputs: []Input{{0, 64}}}}, FS: nil},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// multiProblem builds tasks with three inputs each (30/20/10 MB), as in the
// paper's multi-data experiment.
func multiProblem(t testing.TB, nodes, tasks int, seed int64) *Problem {
	t.Helper()
	fs := dfs.New(view{nodes}, dfs.Config{Seed: seed, ChunkSizeMB: 64})
	sizes := []float64{30, 20, 10}
	var all []Task
	for i := 0; i < tasks; i++ {
		var ins []Input
		for j, s := range sizes {
			name := "/set" + string(rune('A'+j)) + "/" + itoa(i)
			f, err := fs.CreateChunks(name, []float64{s})
			if err != nil {
				t.Fatal(err)
			}
			ins = append(ins, Input{Chunk: f.Chunks[0], SizeMB: s})
		}
		all = append(all, Task{ID: i, Inputs: ins})
	}
	procNode := make([]int, nodes)
	for i := range procNode {
		procNode[i] = i
	}
	return &Problem{ProcNode: procNode, Tasks: all, FS: fs}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for ; i > 0; i /= 10 {
		b = append([]byte{byte('0' + i%10)}, b...)
	}
	return string(b)
}

func TestMultiDataValidAndBetterThanRank(t *testing.T) {
	p := multiProblem(t, 16, 160, 6)
	opass, err := MultiData{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := opass.Validate(p); err != nil {
		t.Fatal(err)
	}
	rank, _ := RankStatic{}.Assign(p)
	if opass.LocalityFraction() <= rank.LocalityFraction() {
		t.Fatalf("multi-data opass locality %v <= rank %v",
			opass.LocalityFraction(), rank.LocalityFraction())
	}
	// Equal task counts.
	for proc, list := range opass.Lists {
		if len(list) != 10 {
			t.Fatalf("proc %d got %d tasks, want 10", proc, len(list))
		}
	}
}

func TestMultiDataReassignment(t *testing.T) {
	// Figure 6(b): t's first owner loses it to a process with a larger
	// matching value. Two processes on nodes 0 and 1; one task whose inputs
	// are mostly on node 1, plus filler tasks so p0 proposes first.
	// Round-robin with r=1 alternates chunks between the two nodes by
	// global chunk ID: /a on node 0, /b on node 1, /c on node 0, /d on 1.
	fs2 := dfs.New(view{2}, dfs.Config{Seed: 3, Replication: 1, Placement: dfs.RoundRobinPlacement{}})
	fA, _ := fs2.CreateChunks("/a", []float64{10}) // node 0
	fB, _ := fs2.CreateChunks("/b", []float64{40}) // node 1
	fC, _ := fs2.CreateChunks("/c", []float64{50}) // node 0
	fD, _ := fs2.CreateChunks("/d", []float64{5})  // node 1
	p := &Problem{
		ProcNode: []int{0, 1},
		FS:       fs2,
		Tasks: []Task{
			// task 0: 10 MB on node0 + 40 MB on node1 -> m(p0)=10, m(p1)=40
			{ID: 0, Inputs: []Input{{fA.Chunks[0], 10}, {fB.Chunks[0], 40}}},
			// task 1: 50 MB on node0 -> m(p0)=50
			{ID: 1, Inputs: []Input{{fC.Chunks[0], 50}}},
			// tasks 2,3: small fillers on node1 and node0
			{ID: 2, Inputs: []Input{{fD.Chunks[0], 5}}},
			{ID: 3, Inputs: []Input{{fA.Chunks[0], 10}}},
		},
	}
	a, err := MultiData{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(p); err != nil {
		t.Fatal(err)
	}
	// p1 must end up owning task 0 (40 MB local beats p0's 10 MB).
	if a.Owner[0] != 1 {
		t.Fatalf("task 0 owned by %d, want 1 (larger matching value)", a.Owner[0])
	}
	if a.Owner[1] != 0 {
		t.Fatalf("task 1 owned by %d, want 0", a.Owner[1])
	}
}

// TestPropertyAssignersProduceValidAssignments fuzzes all planners.
func TestPropertyAssignersProduceValidAssignments(t *testing.T) {
	assigners := []Assigner{SingleData{}, SingleData{Algorithm: bipartite.Dinic}, RankStatic{}, RandomStatic{Seed: 5}}
	prop := func(seed int64, rawNodes, rawPerProc uint8) bool {
		nodes := 3 + int(rawNodes)%20
		perProc := 1 + int(rawPerProc)%8
		p, _ := buildSingle(t, nodes, nodes*perProc, seed, dfs.RandomPlacement{})
		for _, as := range assigners {
			a, err := as.Assign(p)
			if err != nil {
				t.Errorf("%s: %v", as.Name(), err)
				return false
			}
			if err := a.Validate(p); err != nil {
				t.Errorf("%s: invalid assignment: %v", as.Name(), err)
				return false
			}
			if a.LocalityFraction() < 0 || a.LocalityFraction() > 1 {
				t.Errorf("%s: locality %v out of range", as.Name(), a.LocalityFraction())
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickConfig(25)); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyOpassDominatesBaselineLocality: on random placements Opass's
// planned locality is never below rank-static's (it optimizes exactly that
// objective, and the baseline is one feasible solution).
func TestPropertyOpassDominatesBaselineLocality(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 4 + rng.Intn(24)
		p, _ := buildSingle(t, nodes, nodes*4, seed, dfs.RandomPlacement{})
		opass, err := SingleData{Seed: seed}.Assign(p)
		if err != nil {
			t.Error(err)
			return false
		}
		rank, _ := RankStatic{}.Assign(p)
		if opass.PlannedLocalMB+1e-6 < rank.PlannedLocalMB {
			t.Errorf("seed %d: opass local %v < rank %v", seed, opass.PlannedLocalMB, rank.PlannedLocalMB)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickConfig(25)); err != nil {
		t.Fatal(err)
	}
}

// quickConfig pins the property tests' input stream: quick.Check seeds from
// the clock by default, which turns a rare counterexample into a red build
// nobody can reproduce.
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

// multiDataValidWithinQuota runs Algorithm 1 and checks what it guarantees:
// a valid assignment with every process at its equal-count quota.
func multiDataValidWithinQuota(t *testing.T, p *Problem, seed int64) *Assignment {
	t.Helper()
	a, err := MultiData{Seed: seed}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(p); err != nil {
		t.Fatal(err)
	}
	for proc, q := range taskQuotas(len(p.Tasks), p.NumProcs()) {
		if len(a.Lists[proc]) != q {
			t.Fatalf("seed %d: proc %d owns %d tasks, quota %d", seed, proc, len(a.Lists[proc]), q)
		}
	}
	return a
}

// exactBeatsRank checks the property Algorithm 1 lacks: MultiExact plans at
// least rank-static's co-located MB. Every process gets tasks/nodes tasks
// here, so rank-static's plan is within MultiExact's quotas.
func exactBeatsRank(t *testing.T, p *Problem, seed int64) (exact, rank *Assignment) {
	t.Helper()
	exact, err := MultiExact{Seed: seed}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	checkCountQuotas(t, "opass-exact", p, exact, taskQuotas(len(p.Tasks), p.NumProcs()))
	if rank, err = (RankStatic{}).Assign(p); err != nil {
		t.Fatal(err)
	}
	if exact.PlannedLocalMB+1e-6 < rank.PlannedLocalMB {
		t.Fatalf("seed %d: opass-exact plans %v MB local, rank-static %v", seed, exact.PlannedLocalMB, rank.PlannedLocalMB)
	}
	return exact, rank
}

func TestMultiDataPropertyValidAndLocal(t *testing.T) {
	prop := func(seed int64, rawNodes uint8) bool {
		nodes := 4 + int(rawNodes)%12
		p := multiProblem(t, nodes, nodes*3, seed)
		multiDataValidWithinQuota(t, p, seed)
		exactBeatsRank(t, p, seed)
		return true
	}
	if err := quick.Check(prop, quickConfig(20)); err != nil {
		t.Fatal(err)
	}

	// "At least rank-static's locality" is not part of Algorithm 1's
	// property: like Gale-Shapley, it is optimal for each proposer, not in
	// total. On this 4-node / 12-task problem it plans 610 MB local against
	// rank-static's 630 MB; the exact planner reaches the optimum above both.
	const seed = 1693867134031852014
	p := multiProblem(t, 4, 12, seed)
	a := multiDataValidWithinQuota(t, p, seed)
	exact, rank := exactBeatsRank(t, p, seed)
	if a.PlannedLocalMB != 610 || rank.PlannedLocalMB != 630 {
		t.Fatalf("counterexample drifted: multi-data %v MB local, rank-static %v MB; want 610 and 630",
			a.PlannedLocalMB, rank.PlannedLocalMB)
	}
	if got, want := localUnits(p, exact), referenceTransport(p, taskQuotas(len(p.Tasks), p.NumProcs())); got != want {
		t.Fatalf("opass-exact plans %d co-located units (%v MB), the oracle %d", got, exact.PlannedLocalMB, want)
	}
	t.Logf("counterexample: Algorithm 1 %v MB, rank-static %v MB, opass-exact %v MB", a.PlannedLocalMB, rank.PlannedLocalMB, exact.PlannedLocalMB)
}

func TestDynamicSchedulerOwnListFirst(t *testing.T) {
	p, _ := buildSingle(t, 4, 16, 8, dfs.RandomPlacement{})
	a, err := SingleData{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewDynamicScheduler(p, a)
	if err != nil {
		t.Fatal(err)
	}
	// While its own list lasts, proc 0 receives exactly its own tasks in
	// list order.
	for _, want := range a.Lists[0] {
		got, ok := s.Next(0)
		if !ok || got != want {
			t.Fatalf("Next(0) = %d,%v, want %d", got, ok, want)
		}
	}
}

func TestDynamicSchedulerStealsFromLongest(t *testing.T) {
	p, _ := buildSingle(t, 4, 16, 9, dfs.RandomPlacement{})
	a, _ := SingleData{}.Assign(p)
	s, _ := NewDynamicScheduler(p, a)
	// Drain proc 0's list, then one more: must steal from a longest list.
	for range a.Lists[0] {
		s.Next(0)
	}
	before := s.Remaining()
	task, ok := s.Next(0)
	if !ok {
		t.Fatal("expected a stolen task")
	}
	if s.Remaining() != before-1 {
		t.Fatal("Remaining not decremented")
	}
	// The stolen task must have belonged to another process.
	if a.Owner[task] == 0 {
		t.Fatalf("stole task %d that proc 0 already owned", task)
	}
}

func TestDynamicSchedulerServesEachTaskOnce(t *testing.T) {
	p, _ := buildSingle(t, 4, 20, 10, dfs.RandomPlacement{})
	a, _ := SingleData{}.Assign(p)
	s, _ := NewDynamicScheduler(p, a)
	seen := map[int]bool{}
	proc := 0
	for {
		task, ok := s.Next(proc)
		if !ok {
			break
		}
		if seen[task] {
			t.Fatalf("task %d served twice", task)
		}
		seen[task] = true
		proc = (proc + 1) % 4
	}
	if len(seen) != 20 {
		t.Fatalf("served %d tasks, want 20", len(seen))
	}
	if _, ok := s.Next(0); ok {
		t.Fatal("scheduler served a task after drain")
	}
}

func TestRandomDispatcherServesAllOnce(t *testing.T) {
	p, _ := buildSingle(t, 4, 12, 11, dfs.RandomPlacement{})
	d := NewRandomDispatcher(p, 42)
	seen := map[int]bool{}
	for {
		task, ok := d.Next(0)
		if !ok {
			break
		}
		if seen[task] {
			t.Fatalf("task %d dispatched twice", task)
		}
		seen[task] = true
	}
	if len(seen) != 12 {
		t.Fatalf("dispatched %d, want 12", len(seen))
	}
}

func TestEKAndDinicSameLocality(t *testing.T) {
	p, _ := buildSingle(t, 32, 320, 13, dfs.RandomPlacement{})
	ek, err := SingleData{Algorithm: bipartite.EdmondsKarp}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	dn, err := SingleData{Algorithm: bipartite.Dinic}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if ek.PlannedLocalMB != dn.PlannedLocalMB {
		t.Fatalf("EK local %v != Dinic local %v", ek.PlannedLocalMB, dn.PlannedLocalMB)
	}
}

// TestSolverSeam pins the one-line solver rule: the zero value of
// SingleData.Algorithm is the phased matcher at every equal-size problem
// size, a named flow solver is really run (Edmonds-Karp reaches the same
// locality through different tie-breaks, so which solver ran shows in the
// plan itself — the §V-C2 ablation must not silently time the matcher), and
// the matcher on unequal sizes falls back to the Edmonds-Karp plan.
// TestGoldenPlans holds explicit EdmondsKarp to the single_ek golden.
func TestSolverSeam(t *testing.T) {
	owners := func(p *Problem, s SingleData) []int {
		t.Helper()
		s.Seed = 9
		a, err := s.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		return a.Owner
	}
	for _, tasks := range []int{100, 1 << 13} {
		p, _ := buildSingle(t, 16, tasks, 9, dfs.RandomPlacement{})
		def := owners(p, SingleData{})
		if !slices.Equal(def, owners(p, SingleData{Algorithm: bipartite.Kuhn})) {
			t.Errorf("%d tasks: default solver did not produce the matcher's plan", tasks)
		}
		if slices.Equal(def, owners(p, SingleData{Algorithm: bipartite.EdmondsKarp})) {
			t.Errorf("%d tasks: explicit Edmonds-Karp produced the matcher's plan", tasks)
		}
	}
	unequal := goldenSingleProblems(t)["racked-unequal"]
	if !slices.Equal(owners(unequal, SingleData{Algorithm: bipartite.Kuhn}), owners(unequal, SingleData{Algorithm: bipartite.EdmondsKarp})) {
		t.Error("unequal sizes: the matcher did not fall back to the Edmonds-Karp plan")
	}
}

// TestAssignerFor pins the strategy table the facade and the service share,
// including that "" is not a strategy here (the service maps it to "opass"
// before asking) and that the error carries no package prefix.
func TestAssignerFor(t *testing.T) {
	for _, c := range []struct {
		strategy string
		multi    bool
		want     string
	}{
		{"opass", false, "opass-flow"}, {"opass", true, "opass-exact"},
		{"rank", true, "rank-static"}, {"random", false, "random-static"},
		{"greedy", false, "opass-flow"}, {"greedy", true, "opass-exact"},
	} {
		a, err := AssignerFor(c.strategy, 1, c.multi)
		if err != nil || a.Name() != c.want {
			t.Errorf("AssignerFor(%q, multi=%v) = (%v, %v), want %s", c.strategy, c.multi, a, err, c.want)
		}
	}
	for _, bad := range []string{"", "bogus"} {
		if _, err := AssignerFor(bad, 1, false); err == nil || err.Error() != fmt.Sprintf("unknown strategy %q", bad) {
			t.Errorf("AssignerFor(%q) error = %v", bad, err)
		}
	}
}
