package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"opass/internal/dfs"
)

// snapshotEdges deep-copies every byTask edge of an index so it can be
// compared after the index's buffers have been recycled into later builds.
func snapshotEdges(p *Problem, ix *LocalityIndex) [][]LocalityEdge {
	out := make([][]LocalityEdge, len(p.Tasks))
	for t := range p.Tasks {
		out[t] = append([]LocalityEdge(nil), ix.TaskEdges(t)...)
	}
	return out
}

// TestLocalityIndexReleaseReuse cycles pooled buffers through builds of
// different shapes — small, large, rack-tiered, different
// process counts — asserting every rebuilt index is identical to a
// snapshot taken before any buffer recycling. Stale pool contents (old
// epochs in scratch stamps, leftover edges in the flat arrays and transpose
// backings) must never leak into a later index.
func TestLocalityIndexReleaseReuse(t *testing.T) {
	small, _ := buildSingle(t, 8, 64, 21, dfs.RandomPlacement{})
	large, _ := buildSingle(t, 24, 512+64, 22, dfs.RandomPlacement{})
	tiered, _ := buildSingle(t, 16, 128, 23, dfs.RandomPlacement{})
	racks := make([]int, 16)
	for i := range racks {
		racks[i] = i % 4
	}
	tiered.NodeRack = racks

	probs := []*Problem{small, large, tiered, goldenMultiProblem(t)}
	want := make([][][]LocalityEdge, len(probs))
	wantRack := make([][][]LocalityEdge, len(probs))
	for i, p := range probs {
		ix := NewLocalityIndex(p)
		want[i] = snapshotEdges(p, ix)
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
			ix := NewLocalityIndex(p)
			for task := range p.Tasks {
				got := ix.TaskEdges(task)
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
			// Cross-check the transposed view against the task view too.
			for proc := 0; proc < p.NumProcs(); proc++ {
				for _, e := range ix.ProcEdges(proc) {
					if got := ix.CoLocatedMB(e.Proc, e.Task); got != e.MB {
						t.Fatalf("round %d prob %d: views disagree on (%d,%d): %v vs %v", round, i, e.Proc, e.Task, got, e.MB)
					}
				}
			}
			ix.Release()
		}
	}
}

// TestPlannersConcurrentPooledBuffers runs the three pooled-index planners
// concurrently against independent problems, each goroutine checking its
// plans stay identical across iterations — the service's concurrent
// request path in miniature. Run with -race this proves the sync.Pool
// recycling cannot mix buffers between in-flight plans.
func TestPlannersConcurrentPooledBuffers(t *testing.T) {
	p1, _ := buildSingle(t, 8, 80, 31, dfs.RandomPlacement{})
	p2, _ := buildSingle(t, 12, 512, 32, dfs.RandomPlacement{})
	p3 := goldenMultiProblem(t)

	runs := []struct {
		name string
		plan func() (*Assignment, error)
	}{
		{"single", func() (*Assignment, error) { return SingleData{Seed: 1}.Assign(p1) }},
		{"greedy", func() (*Assignment, error) { return GreedyLocality{Seed: 2}.Assign(p2) }},
		{"multi", func() (*Assignment, error) { return MultiData{Seed: 3}.Assign(p3) }},
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
// locality edges — no Graph, no per-file transpose. It runs at
// GOMAXPROCS(1) with the GC off so the warm-up's Release is the buffer the
// measured plan gets back, and is skipped under -race, where sync.Pool
// drops Puts at random.
func TestSingleDataPlanAllocatesLessThanItsEdges(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	p := benchSpec(256, 25600, []float64{64}, 3).csrBacked()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if _, err := (SingleData{}).Assign(p); err != nil {
		t.Fatal(err)
	}
	ix := NewLocalityIndex(p)
	edges := ix.NumEdges()
	ix.Release()
	budget := uint64(edges) * uint64(unsafe.Sizeof(LocalityEdge{}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := (SingleData{}).Assign(p); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if got >= budget {
		t.Fatalf("a warm %d-task plan allocated %d B, one copy of its %d edges is %d B", len(p.Tasks), got, edges, budget)
	}
	t.Logf("%d-task plan: %d B allocated, edge budget %d B", len(p.Tasks), got, budget)
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
