package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
)

// probeEdges is task's row of the locality graph by brute force:
// every process with co-located data, ascending.
func probeEdges(p *Problem, task int) []LocalityEdge {
	var es []LocalityEdge
	for proc := 0; proc < p.NumProcs(); proc++ {
		if mb := p.CoLocatedMB(proc, task); mb > 0 {
			es = append(es, LocalityEdge{Proc: proc, Task: task, MB: mb})
		}
	}
	return es
}

// TestTightIndexMatchesProbes: tightRows are the probe's maximum-MB edges in
// process order and CoLocatedMB answers every (process, task) pair as the
// probe does, neither sorting the task rows; the first taskEdges read sorts
// them once into the probe's rows, and later reads do not sort again.
func TestTightIndexMatchesProbes(t *testing.T) {
	probs := indexOracleProblems(t)
	probs["skewed"] = skewedSpec(32, 3, 320, 3).csrBacked()
	for name, p := range probs {
		t.Run(name, func(t *testing.T) {
			ix := NewLocalityIndex(p)
			defer ix.Release()
			if sorts := countTaskRowSorts(func() {
				tight, holders := ix.tightRows()
				wantHolders := 0
				for task := range p.Tasks {
					want := probeEdges(p, task)
					top := 0.0
					for _, e := range want {
						top = max(top, e.MB)
					}
					want = slices.DeleteFunc(want, func(e LocalityEdge) bool { return e.MB != top })
					if got := tight.Row(task); !slices.Equal(got, want) {
						t.Fatalf("tight row of task %d = %v, probes say %v", task, got, want)
					}
					if len(want) > 0 {
						wantHolders++
					}
					for proc := 0; proc < p.NumProcs(); proc++ {
						if got, mb := ix.CoLocatedMB(proc, task), p.CoLocatedMB(proc, task); got != mb {
							t.Fatalf("CoLocatedMB(proc=%d, task=%d) = %v, probe says %v", proc, task, got, mb)
						}
					}
				}
				if holders != wantHolders {
					t.Fatalf("tightRows counts %d tasks with a holder, probes %d", holders, wantHolders)
				}
			}); sorts != 0 {
				t.Fatalf("reading the tight rows and CoLocatedMB sorted the task rows %d times", sorts)
			}
			for read := 0; read < 2; read++ {
				if sorts := countTaskRowSorts(func() {
					for task := range p.Tasks {
						if got, want := ix.taskEdges(task), probeEdges(p, task); !slices.Equal(got, want) {
							t.Fatalf("taskEdges(%d) = %v, probes say %v", task, got, want)
						}
					}
				}); sorts != 1-read {
					t.Fatalf("read %d of every task row sorted them %d times, want %d", read, sorts, 1-read)
				}
			}
		})
	}
}

// ownersHash fingerprints an owner vector.
func ownersHash(owner []int) uint64 {
	h := fnv.New64a()
	for _, o := range owner {
		fmt.Fprintf(h, "%d,", o)
	}
	return h.Sum64()
}

// TestMultiExactSortsTaskRowsOnlyForStage2: stage 1 reads only the
// best-holder rows, so a plan of a uniform 3-way body, which stage 1
// finishes, never sorts its task rows; a skewed body, which needs the
// min-cost repair, sorts them exactly once. The owners are the ones every
// plan had while each build sorted its task rows eagerly (their FNV-1a
// hashes were recorded then).
func TestMultiExactSortsTaskRowsOnlyForStage2(t *testing.T) {
	for _, c := range []struct {
		name   string
		p      *Problem
		stage2 bool
		owners uint64
		local  float64
	}{
		{"uniform", benchSpec(64, 640, []float64{30, 20, 10}, 2).csrBacked(), false, 0x69f714a2bf3a0669, 21810},
		{"skewed", skewedSpec(32, 3, 320, 3).csrBacked(), true, 0x31baa0e5fddc0bed, 1800},
	} {
		if got := stage2Runs(t, c.p); got != c.stage2 {
			t.Fatalf("%s: stage 2 runs: %v, want %v", c.name, got, c.stage2)
		}
		var a *Assignment
		sorts := countTaskRowSorts(func() {
			var err error
			if a, err = (MultiExact{Seed: 5}).Assign(c.p); err != nil {
				t.Fatal(err)
			}
		})
		if want := map[bool]int{false: 0, true: 1}[c.stage2]; sorts != want {
			t.Fatalf("%s: the plan sorted its task rows %d times, want %d", c.name, sorts, want)
		}
		if got := ownersHash(a.Owner); got != c.owners || a.PlannedLocalMB != c.local {
			t.Fatalf("%s: owners hash %#x, %v MB local; the eagerly sorted index planned %#x, %v MB", c.name, got, a.PlannedLocalMB, c.owners, c.local)
		}
		checkPlannedLocality(t, c.name, c.p, a)
	}
}

// TestDeferredSortHonoursCancel: a cancelled context stops the deferred
// sort with its error and leaves the rows marked unsorted, so the next read
// still sorts them all.
func TestDeferredSortHonoursCancel(t *testing.T) {
	p := skewedSpec(32, 3, 2*indexCtxStride+1, 3).csrBacked()
	ix := NewLocalityIndex(p)
	defer ix.Release()
	ctx := &trippedCtx{Context: context.Background(), after: 1} // the first row poll passes, the second trips
	if rows, err := ix.taskRows(ctx); rows != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("taskRows under a cancelled context = (%v, %v), want (nil, context.Canceled)", rows, err)
	}
	if ix.sorted {
		t.Fatal("a cancelled sort marked the task rows sorted")
	}
	for task := range p.Tasks {
		if got, want := ix.taskEdges(task), probeEdges(p, task); !slices.Equal(got, want) {
			t.Fatalf("taskEdges(%d) after a cancelled sort = %v, probes say %v", task, got, want)
		}
	}
}
