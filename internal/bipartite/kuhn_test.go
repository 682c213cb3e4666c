package bipartite

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// flowMatchingOracle computes the quota-constrained maximum matching size
// via max flow — the ground truth for MatchAugmenting.
func flowMatchingOracle(g *Graph, quota []int) int {
	numP, numF := g.NumP(), g.NumF()
	s, t := 0, 1+numP+numF
	fn := NewFlowNetwork(t + 1)
	for p := 0; p < numP; p++ {
		fn.AddArc(s, 1+p, int64(quota[p]))
	}
	for p := 0; p < numP; p++ {
		for _, e := range g.EdgesOfP(p) {
			fn.AddArc(1+p, 1+numP+e.F, 1)
		}
	}
	for f := 0; f < numF; f++ {
		fn.AddArc(1+numP+f, t, 1)
	}
	return int(fn.MaxFlowDinic(s, t))
}

func TestMatchAugmentingSmall(t *testing.T) {
	g := NewGraph(2, 4)
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 1)
	owner, size := MatchAugmenting(g, []int{2, 2})
	if size != 4 {
		t.Fatalf("size = %d, want 4 (full matching exists)", size)
	}
	counts := map[int]int{}
	for f, p := range owner {
		if p == -1 {
			t.Fatalf("file %d unmatched: %v", f, owner)
		}
		if g.Weight(p, f) == 0 {
			t.Fatalf("file %d matched to non-adjacent process %d", f, p)
		}
		counts[p]++
	}
	for p, c := range counts {
		if c > 2 {
			t.Fatalf("process %d over quota: %d", p, c)
		}
	}
}

func TestMatchAugmentingDegenerate(t *testing.T) {
	g := NewGraph(2, 3)
	owner, size := MatchAugmenting(g, []int{1, 1})
	if size != 0 {
		t.Fatalf("size = %d on empty graph", size)
	}
	for _, p := range owner {
		if p != -1 {
			t.Fatal("matched a file with no edges")
		}
	}
	g.AddEdge(0, 0, 1)
	if _, size := MatchAugmenting(g, []int{0, 0}); size != 0 {
		t.Fatalf("size = %d with zero quotas", size)
	}
}

func TestMatchAugmentingNeedsDisplacement(t *testing.T) {
	// Greedy puts f0 on p0 (quota 1); f1's only home is p0, so f0 must be
	// displaced to p1.
	g := NewGraph(2, 2)
	g.AddEdge(0, 0, 1)
	g.AddEdge(1, 0, 1)
	g.AddEdge(0, 1, 1)
	owner, size := MatchAugmenting(g, []int{1, 1})
	if size != 2 {
		t.Fatalf("size = %d, want 2 (requires displacement)", size)
	}
	if owner[0] != 1 || owner[1] != 0 {
		t.Fatalf("owner = %v, want [1 0]", owner)
	}
}

// TestPropertyMatchAugmentingMatchesFlow fuzzes the matcher against the
// flow oracle on random graphs and quotas.
func TestPropertyMatchAugmentingMatchesFlow(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numP := 1 + rng.Intn(8)
		numF := 1 + rng.Intn(16)
		g := NewGraph(numP, numF)
		for p := 0; p < numP; p++ {
			for f := 0; f < numF; f++ {
				if rng.Float64() < 0.3 {
					g.AddEdge(p, f, 1)
				}
			}
		}
		quota := make([]int, numP)
		for i := range quota {
			quota[i] = rng.Intn(4)
		}
		owner, size := MatchAugmenting(g, quota)
		want := flowMatchingOracle(g, quota)
		if size != want {
			t.Errorf("seed %d: matcher size %d, flow oracle %d", seed, size, want)
			return false
		}
		counts := make([]int, numP)
		matched := 0
		for f, p := range owner {
			if p == -1 {
				continue
			}
			matched++
			counts[p]++
			if g.Weight(p, f) == 0 {
				t.Errorf("seed %d: non-edge matched", seed)
				return false
			}
		}
		if matched != size {
			t.Errorf("seed %d: owner count %d != size %d", seed, matched, size)
			return false
		}
		for p, c := range counts {
			if c > quota[p] {
				t.Errorf("seed %d: quota violated at %d", seed, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickConfig(300)); err != nil {
		t.Fatal(err)
	}
}

func TestMatchAugmentingLargeLocalityGraph(t *testing.T) {
	// A realistic Opass-shaped instance: 64 processes, 640 files, 3 random
	// co-located processes per file, quota 10 each.
	rng := rand.New(rand.NewSource(77))
	g := NewGraph(64, 640)
	for f := 0; f < 640; f++ {
		perm := rng.Perm(64)[:3]
		for _, p := range perm {
			g.AddEdge(p, f, 1)
		}
	}
	quota := make([]int, 64)
	for i := range quota {
		quota[i] = 10
	}
	_, size := MatchAugmenting(g, quota)
	want := flowMatchingOracle(g, quota)
	if size != want {
		t.Fatalf("matcher %d != flow %d", size, want)
	}
	if size < 630 {
		t.Fatalf("matching %d unexpectedly small", size)
	}
}
