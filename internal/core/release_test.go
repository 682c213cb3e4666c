package core

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

	"opass/internal/bipartite"
	"opass/internal/dfs"
)

// TestLocalityIndexReleaseReuse cycles pooled buffers through builds of
// different shapes — small, large, rack-tiered, different
// process counts — asserting every rebuilt index's task rows equal the
// probe's and its rack rows a snapshot taken before any buffer recycling.
// Stale pool contents (old epochs in scratch stamps, leftover edges in the
// flat arrays and transpose backings) must never leak into a later index.
// Every build follows a MultiExact plan, which hands back a buffer whose
// task rows it left unsorted (or, on the skewed problem, sorted for stage
// 2): the build that takes it must read as unsorted, its first taskEdges
// read must sort once, SingleData's PlannedLocalMB must stay the probe's,
// and the exact plans must not drift. Each plan also sorts the task rows
// exactly as often as its solver's tie-breaks read row order: once for the
// equal-size matcher and MultiExact's stage 2, never for the flow network
// (a tail-chunk problem), MultiData, a dynamic-scheduler drain or a
// MultiExact plan that stage 1 places.
func TestLocalityIndexReleaseReuse(t *testing.T) {
	small, _ := buildSingle(t, 8, 64, 21, dfs.RandomPlacement{})
	large, _ := buildSingle(t, 24, 512+64, 22, dfs.RandomPlacement{})
	tiered, _ := buildSingle(t, 16, 128, 23, dfs.RandomPlacement{})
	racks := make([]int, 16)
	for i := range racks {
		racks[i] = i % 4
	}
	tiered.NodeRack = racks
	tailFS := dfs.New(view{8}, dfs.Config{Seed: 25, Placement: dfs.RandomPlacement{}})
	if _, err := tailFS.Create("/data", 64*64-10); err != nil { // the last chunk is a 54 MB tail
		t.Fatal(err)
	}
	tail, err := SingleDataProblem(tailFS, []string{"/data"}, small.ProcNode)
	if err != nil {
		t.Fatal(err)
	}
	plans := map[string]struct {
		sorts int
		plan  func() (*Assignment, error)
	}{
		"SingleData equal sizes": {1, func() (*Assignment, error) { return SingleData{}.Assign(small) }},
		"SingleData tail chunk":  {0, func() (*Assignment, error) { return SingleData{}.Assign(tail) }},
		"MultiData":              {0, func() (*Assignment, error) { return MultiData{}.Assign(goldenMultiProblem(t)) }},
		"dynamic drain": {0, func() (*Assignment, error) {
			a, err := SingleData{}.Assign(tail)
			if err != nil {
				return nil, err
			}
			s, err := NewDynamicScheduler(tail, a)
			for proc := 0; err == nil && s.Remaining() > 0; proc = (proc + 1) % tail.NumProcs() {
				s.Next(proc)
			}
			return a, err
		}},
	}

	probs := []*Problem{small, large, tiered, goldenMultiProblem(t)}
	exactProbs := []*Problem{goldenMultiProblem(t), skewedSpec(32, 3, 320, 3).csrBacked()}
	exactOwners := make([][]int, len(exactProbs))
	exactSorts := make([]int, len(exactProbs))
	for i, p := range exactProbs {
		a, err := MultiExact{}.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		exactOwners[i] = a.Owner
		if stage2Runs(t, p) {
			exactSorts[i] = 1
		}
	}
	if exactSorts[0] != 0 || exactSorts[1] != 1 {
		t.Fatalf("stage 2 runs on the golden multi and skewed problems: %v, want [0 1]", exactSorts)
	}
	want := make([][][]LocalityEdge, len(probs))
	wantRack := make([][][]LocalityEdge, len(probs))
	for i, p := range probs {
		want[i] = make([][]LocalityEdge, len(p.Tasks))
		for task := range p.Tasks {
			want[i][task] = probeEdges(p, task)
		}
		ix := NewLocalityIndex(p)
		if ix.RackTiered() {
			wantRack[i] = make([][]LocalityEdge, len(p.Tasks))
			for task := range p.Tasks {
				wantRack[i][task] = append([]LocalityEdge(nil), ix.TaskRackEdges(task)...)
			}
		}
		ix.Release()
	}

	// Interleave shapes so recycled scratch/blocks/backing cross problem
	// boundaries (growing and shrinking proc counts, node vs rack tiers).
	for round := 0; round < 4; round++ {
		for i, p := range probs {
			exact := (round + i) % len(exactProbs)
			var a *Assignment
			var err error
			if sorts := countTaskRowSorts(func() { a, err = MultiExact{}.Assign(exactProbs[exact]) }); err != nil {
				t.Fatal(err)
			} else if sorts != exactSorts[exact] {
				t.Fatalf("round %d: MultiExact on problem %d sorted its task rows %d times, want %d", round, exact, sorts, exactSorts[exact])
			}
			if !slices.Equal(a.Owner, exactOwners[exact]) {
				t.Fatalf("round %d: MultiExact plan of problem %d drifted after pooled reuse", round, exact)
			}
			checkPlannedLocality(t, "MultiExact", exactProbs[exact], a)
			if i < 3 { // single-input
				a, err := SingleData{}.Assign(p)
				if err != nil {
					t.Fatal(err)
				}
				checkPlannedLocality(t, fmt.Sprintf("round %d SingleData on prob %d", round, i), p, a)
			}
			for name, c := range plans {
				if sorts := countTaskRowSorts(func() {
					if _, err := c.plan(); err != nil {
						t.Fatal(err)
					}
				}); sorts != c.sorts {
					t.Fatalf("round %d: %s sorted its task rows %d times, want %d", round, name, sorts, c.sorts)
				}
			}
			var ix *LocalityIndex
			if sorts := countTaskRowSorts(func() { ix = NewLocalityIndex(p); ix.taskEdges(0); ix.taskEdges(1) }); sorts != 1 {
				t.Fatalf("round %d prob %d: a build's first reads sorted its task rows %d times, want once", round, i, sorts)
			}
			for task := range p.Tasks {
				got := ix.taskEdges(task)
				if len(got) != len(want[i][task]) {
					t.Fatalf("round %d prob %d task %d: %d edges, want %d", round, i, task, len(got), len(want[i][task]))
				}
				for k := range got {
					if got[k] != want[i][task][k] {
						t.Fatalf("round %d prob %d task %d edge %d: %+v, want %+v", round, i, task, k, got[k], want[i][task][k])
					}
				}
				if wantRack[i] != nil {
					gotR := ix.TaskRackEdges(task)
					if len(gotR) != len(wantRack[i][task]) {
						t.Fatalf("round %d prob %d task %d: %d rack edges, want %d", round, i, task, len(gotR), len(wantRack[i][task]))
					}
					for k := range gotR {
						if gotR[k] != wantRack[i][task][k] {
							t.Fatalf("round %d prob %d task %d rack edge %d: %+v, want %+v", round, i, task, k, gotR[k], wantRack[i][task][k])
						}
					}
				}
			}
			// Cross-check the transposed view against the task view too: a
			// stale transpose left in the pooled buffer must not be served.
			procEdges := 0
			for proc := 0; proc < p.NumProcs(); proc++ {
				procEdges += len(ix.ProcEdges(proc))
				for _, e := range ix.ProcEdges(proc) {
					if got := ix.CoLocatedMB(e.Proc, e.Task); got != e.MB {
						t.Fatalf("round %d prob %d: views disagree on (%d,%d): %v vs %v", round, i, e.Proc, e.Task, got, e.MB)
					}
				}
			}
			if procEdges != ix.NumEdges() {
				t.Fatalf("round %d prob %d: process view holds %d edges, the index %d", round, i, procEdges, ix.NumEdges())
			}
			ix.Release()
		}
	}
}

// TestPlannersConcurrentPooledBuffers runs the three pooled-index planners
// concurrently against independent problems, each goroutine checking its
// plans stay identical across iterations and releasing each answer after
// reading it — the service's concurrent request path in miniature. Run with -race this proves the sync.Pool
// recycling cannot mix buffers between in-flight plans.
func TestPlannersConcurrentPooledBuffers(t *testing.T) {
	p1, _ := buildSingle(t, 8, 80, 31, dfs.RandomPlacement{})
	p3 := goldenMultiProblem(t)
	p4 := skewedSpec(32, 3, 320, 3).csrBacked()

	runs := []struct {
		name string
		plan func() (*Assignment, error)
	}{
		{"single", func() (*Assignment, error) { return SingleData{Seed: 1}.Assign(p1) }},
		{"multi", func() (*Assignment, error) { return MultiData{Seed: 3}.Assign(p3) }},
		{"multi-exact", func() (*Assignment, error) { return MultiExact{Seed: 4}.Assign(p3) }},
		{"multi-exact-repair", func() (*Assignment, error) { return MultiExact{Seed: 5}.Assign(p4) }},
	}
	done := make(chan error, len(runs))
	for _, r := range runs {
		go func(name string, plan func() (*Assignment, error)) {
			base, err := plan()
			if err != nil {
				done <- err
				return
			}
			for i := 0; i < 8; i++ {
				a, err := plan()
				if err != nil {
					done <- err
					return
				}
				for task := range base.Owner {
					if a.Owner[task] != base.Owner[task] {
						t.Errorf("%s iteration %d: task %d owner %d, want %d", name, i, task, a.Owner[task], base.Owner[task])
						done <- nil
						return
					}
				}
				a.Release() // the next plan, here or in another goroutine, may take its storage
			}
			done <- nil
		}(r.name, r.plan)
	}
	for range runs {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSingleDataPlanAllocatesLessThanItsEdges: an equal-size single-data
// plan hands the pooled index's task rows to the matcher in place, so once
// the pool is warm the whole plan allocates less than one copy of its
// locality edges — no Graph, no per-file transpose.
func TestSingleDataPlanAllocatesLessThanItsEdges(t *testing.T) {
	checkWarmPlanAllocatesLessThanItsEdges(t, SingleData{}, benchSpec(256, 25600, []float64{64}, 3).csrBacked())
}

// TestMultiDataPlanAllocatesLessThanItsEdges is its Algorithm 1 twin: the
// proposals pop the pooled index's process rows in place, so a warm 3-input
// plan allocates less than one copy of its edges — no preference lists.
func TestMultiDataPlanAllocatesLessThanItsEdges(t *testing.T) {
	checkWarmPlanAllocatesLessThanItsEdges(t, MultiData{}, benchSpec(256, 2560, []float64{30, 20, 10}, 3).csrBacked())
}

// TestMultiExactPlanAllocatesLessThanItsEdges is the exact planner's twin:
// its tight rows live in the pooled index buffer and the matcher's working
// arrays in the matcher's pool, so a warm paper-scale plan allocates less
// than one copy of its edges.
func TestMultiExactPlanAllocatesLessThanItsEdges(t *testing.T) {
	checkWarmPlanAllocatesLessThanItsEdges(t, MultiExact{}, benchSpec(256, 2560, []float64{30, 20, 10}, 3).csrBacked())
}

// maxWarmPlanAllocs is how many objects a warm plan may allocate: its
// quota and ledger arrays and the Assignment, a handful of each, whatever
// the problem size (the answer's arrays come back from the released
// warm-up plan). A structure grown per process or per task (lists built one append
// at a time) is hundreds or thousands.
const maxWarmPlanAllocs = 32

// checkWarmPlanAllocatesLessThanItsEdges plans p twice, releasing the
// first plan, and fails t if the second plan allocates one edge array's
// bytes or more, or more than maxWarmPlanAllocs objects. It runs at
// GOMAXPROCS(1) with the GC off so the warm-up's Releases are the buffers the
// measured plan gets back, and skips under -race, where sync.Pool drops Puts
// at random.
func checkWarmPlanAllocatesLessThanItsEdges(t *testing.T, as Assigner, p *Problem) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	warm, err := as.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	warm.Release()
	ix := NewLocalityIndex(p)
	edges := ix.NumEdges()
	ix.Release()
	budget := uint64(edges) * uint64(unsafe.Sizeof(LocalityEdge{}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := as.Assign(p); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	if got >= budget {
		t.Fatalf("a warm %d-task plan allocated %d B, one copy of its %d edges is %d B", len(p.Tasks), got, edges, budget)
	}
	if objects > maxWarmPlanAllocs {
		t.Fatalf("a warm %d-task plan made %d allocations, over %d", len(p.Tasks), objects, maxWarmPlanAllocs)
	}
	t.Logf("%d-task plan: %d B in %d allocations, edge budget %d B", len(p.Tasks), got, objects, budget)
}

// TestLocalityIndexDoubleReleasePanics pins the misuse guard.
func TestLocalityIndexDoubleReleasePanics(t *testing.T) {
	p, _ := buildSingle(t, 4, 16, 24, dfs.RandomPlacement{})
	ix := NewLocalityIndex(p)
	ix.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	ix.Release()
}

// TestLocalityIndexNilRelease asserts error-path callers may release a nil
// index unconditionally.
func TestLocalityIndexNilRelease(t *testing.T) {
	var ix *LocalityIndex
	ix.Release() // must not panic
}

// TestAssignmentReleaseReuse cycles answer buffers through plans of
// different shapes — task and process counts up and down, processes left
// without a task, every planner — releasing each plan, and holds every plan
// to the one its planner made before any buffer was recycled: the same
// owners, matched flags and lists, an empty list still nil. Stale owners,
// list headers or offsets must never leak into a later answer.
func TestAssignmentReleaseReuse(t *testing.T) {
	big, _ := buildSingle(t, 16, 400, 3, dfs.RandomPlacement{})
	small, _ := buildSingle(t, 4, 24, 5, dfs.RandomPlacement{})
	few, _ := buildSingle(t, 12, 5, 7, dfs.RandomPlacement{}) // 7 processes get nothing
	multi := multiProblem(t, 8, 120, 9)
	cases := []struct {
		as Assigner
		p  *Problem
	}{
		{SingleData{Seed: 1}, big}, {SingleData{Seed: 2}, small}, {SingleData{Seed: 3}, few},
		{SingleData{Algorithm: bipartite.Dinic}, small}, {MultiData{Seed: 4}, multi},
		{MultiExact{Seed: 5}, multi}, {RankStatic{}, few}, {RandomStatic{Seed: 6}, big},
	}
	want := make([]*Assignment, len(cases))
	for i, c := range cases {
		a, err := c.as.Assign(c.p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = &Assignment{Owner: slices.Clone(a.Owner), Lists: make([][]int, len(a.Lists)), Matched: slices.Clone(a.Matched)}
		for p, l := range a.Lists {
			want[i].Lists[p] = slices.Clone(l)
		}
	}
	for round := range 3 {
		for k := range cases {
			i := (k*5 + round) % len(cases)
			a, err := cases[i].as.Assign(cases[i].p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Owner, want[i].Owner) || !reflect.DeepEqual(a.Lists, want[i].Lists) || !reflect.DeepEqual(a.Matched, want[i].Matched) {
				t.Fatalf("round %d, %s on %d tasks: the plan drifted on a recycled buffer", round, cases[i].as.Name(), len(cases[i].p.Tasks))
			}
			a.Release()
			if a.Owner != nil || a.Lists != nil || a.Matched != nil {
				t.Fatal("a released assignment still shows its storage")
			}
		}
	}
}

// TestAssignmentDoubleReleasePanics pins the misuse guard; a nil
// assignment, or one built by hand, releases quietly.
func TestAssignmentDoubleReleasePanics(t *testing.T) {
	var none *Assignment
	none.Release()
	(&Assignment{Owner: []int{0}, Lists: [][]int{{0}}}).Release()
	p, _ := buildSingle(t, 4, 16, 24, dfs.RandomPlacement{})
	a, err := SingleData{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	a.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	a.Release()
}
