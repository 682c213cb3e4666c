package bipartite

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestGraphSortedAdjacencyInvariant fuzzes AddEdge with out-of-order
// inserts and parallel-edge accumulation, checking the sorted views and
// binary-searched weights against a map oracle.
func TestGraphSortedAdjacencyInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numP := 1 + rng.Intn(8)
		numF := 1 + rng.Intn(12)
		g := NewGraph(numP, numF)
		type key struct{ p, f int }
		oracle := map[key]int64{}
		for i := 0; i < 60; i++ {
			p, f := rng.Intn(numP), rng.Intn(numF)
			w := int64(1 + rng.Intn(5))
			g.AddEdge(p, f, w)
			oracle[key{p, f}] += w
		}
		if g.NumEdges() != len(oracle) {
			t.Errorf("seed %d: %d edges, oracle %d", seed, g.NumEdges(), len(oracle))
			return false
		}
		for p := 0; p < numP; p++ {
			es := g.EdgesOfP(p)
			if !sort.SliceIsSorted(es, func(a, b int) bool { return es[a].F < es[b].F }) {
				t.Errorf("seed %d: EdgesOfP(%d) unsorted: %v", seed, p, es)
				return false
			}
			for _, e := range es {
				if e.P != p || oracle[key{e.P, e.F}] != e.Weight {
					t.Errorf("seed %d: bad edge %+v (oracle %d)", seed, e, oracle[key{e.P, e.F}])
					return false
				}
			}
		}
		for f := 0; f < numF; f++ {
			es := g.EdgesOfF(f)
			if !sort.SliceIsSorted(es, func(a, b int) bool { return es[a].P < es[b].P }) {
				t.Errorf("seed %d: EdgesOfF(%d) unsorted: %v", seed, f, es)
				return false
			}
			for _, e := range es {
				if e.F != f || oracle[key{e.P, e.F}] != e.Weight {
					t.Errorf("seed %d: bad edge %+v", seed, e)
					return false
				}
			}
		}
		for p := 0; p < numP; p++ {
			for f := 0; f < numF; f++ {
				if got := g.Weight(p, f); got != oracle[key{p, f}] {
					t.Errorf("seed %d: Weight(%d,%d) = %d, want %d", seed, p, f, got, oracle[key{p, f}])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, quickConfig(200)); err != nil {
		t.Fatal(err)
	}
}

// TestGraphEdgeViewsAreStableAcrossCalls pins the zero-copy contract of the
// two views the solvers read: a process's list and a file-side row. Two
// calls return the same backing data and repeated calls do not allocate
// fresh sorted copies (the regression that made every matcher visit
// re-sort adjacency).
func TestGraphEdgeViewsAreStableAcrossCalls(t *testing.T) {
	g := NewGraph(3, 3)
	g.AddEdge(1, 2, 4)
	g.AddEdge(1, 0, 2)
	g.AddEdge(1, 1, 3)
	rows := rowsOf(g)
	a, b := g.EdgesOfP(1), g.EdgesOfP(1)
	r, s := rows.Row(1), rows.Row(1)
	if len(a) != 3 || len(b) != 3 || len(r) != 1 || len(s) != 1 {
		t.Fatalf("views %v / %v and rows %v / %v, want 3 and 1 edges", a, b, r, s)
	}
	if &a[0] != &b[0] || &r[0] != &s[0] {
		t.Fatal("views returned different backing arrays; they must be zero-copy")
	}
	if cap(r) != len(r) {
		t.Fatalf("row has capacity %d past its %d edges; an append would reach the next row", cap(r), len(r))
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = g.EdgesOfP(2)
		_ = rows.Row(1)
	})
	if allocs != 0 {
		t.Fatalf("edge views allocate %.1f allocs per call pair, want 0", allocs)
	}
}

// TestMatchAugmentingParityRandomQuotas: on random weighted graphs with
// randomized quota vectors (including zero and over-provisioned quotas),
// the matcher's size must equal both max-flow formulations exactly.
func TestMatchAugmentingParityRandomQuotas(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numP := 1 + rng.Intn(10)
		numF := 1 + rng.Intn(24)
		g := NewGraph(numP, numF)
		for p := 0; p < numP; p++ {
			for f := 0; f < numF; f++ {
				if rng.Float64() < 0.25 {
					g.AddEdge(p, f, int64(1+rng.Intn(64)))
				}
			}
		}
		quota := make([]int, numP)
		for i := range quota {
			// Heavy tail: mostly small quotas, occasionally far more than
			// numF so some processes can absorb everything.
			quota[i] = rng.Intn(5)
			if rng.Float64() < 0.1 {
				quota[i] = numF + rng.Intn(4)
			}
		}
		owner, size := MatchAugmenting(g, quota)
		if msg := checkMatching(g, quota, owner, size); msg != "" {
			t.Errorf("seed %d: %s", seed, msg)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickConfig(400)); err != nil {
		t.Fatal(err)
	}
}
