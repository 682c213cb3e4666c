package bipartite

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGraphEdgeAccounting(t *testing.T) {
	g := NewGraph(2, 3)
	g.AddEdge(0, 1, 64)
	g.AddEdge(0, 2, 64)
	g.AddEdge(1, 1, 64)
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
	if g.Weight(0, 1) != 64 || g.Weight(1, 0) != 0 {
		t.Fatal("weight lookup wrong")
	}
	// Parallel edge accumulates.
	g.AddEdge(0, 1, 30)
	if g.NumEdges() != 3 || g.Weight(0, 1) != 94 {
		t.Fatalf("parallel edge: edges=%d weight=%d, want 3, 94", g.NumEdges(), g.Weight(0, 1))
	}
	if len(g.EdgesOfP(0)) != 2 || len(g.EdgesOfF(1)) != 2 {
		t.Fatalf("degrees wrong: %v %v", g.EdgesOfP(0), g.EdgesOfF(1))
	}
}

func TestGraphPanics(t *testing.T) {
	g := NewGraph(1, 1)
	for i, fn := range []func(){
		func() { g.AddEdge(-1, 0, 1) },
		func() { g.AddEdge(0, 5, 1) },
		func() { g.AddEdge(0, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestAssignFigure5Shape(t *testing.T) {
	// Two processes, four equal files; p0 co-located with f0,f1,f2 and p1
	// with f2,f3. Quota 2 files each (128 MB). A full matching exists:
	// p0 <- {f0,f1}, p1 <- {f2,f3}. The flow must find it even though the
	// greedy choice of f2 for p0 would block p1 (cancellation at work).
	g := NewGraph(2, 4)
	g.AddEdge(0, 0, 64)
	g.AddEdge(0, 1, 64)
	g.AddEdge(0, 2, 64)
	g.AddEdge(1, 2, 64)
	g.AddEdge(1, 3, 64)
	for _, algo := range []Algorithm{EdmondsKarp, Dinic} {
		res := AssignMaxLocality(g, []int64{128, 128}, []int64{64, 64, 64, 64}, algo)
		if res.Owner[2] != 1 || res.Owner[3] != 1 || res.Owner[0] != 0 || res.Owner[1] != 0 {
			t.Fatalf("%v: owners = %v", algo, res.Owner)
		}
	}
}

func TestAssignRespectsQuotas(t *testing.T) {
	// One process co-located with everything but quota limits it to 2 files.
	g := NewGraph(2, 4)
	for f := 0; f < 4; f++ {
		g.AddEdge(0, f, 64)
	}
	res := AssignMaxLocality(g, []int64{128, 128}, []int64{64, 64, 64, 64}, EdmondsKarp)
	owned := 0
	for _, o := range res.Owner {
		if o == 0 {
			owned++
		}
		if o == 1 {
			t.Fatal("p1 must own nothing")
		}
	}
	if owned != 2 {
		t.Fatalf("p0 owns %d files, want its 128 MB quota of 2", owned)
	}
}

func TestAssignNoEdgesNothingAssigned(t *testing.T) {
	g := NewGraph(2, 2)
	res := AssignMaxLocality(g, []int64{64, 64}, []int64{64, 64}, EdmondsKarp)
	for _, o := range res.Owner {
		if o != -1 {
			t.Fatalf("owner = %v, want all -1", res.Owner)
		}
	}
}

func TestMaxMatchingSizeSmall(t *testing.T) {
	g := NewGraph(3, 3)
	g.AddEdge(0, 0, 1)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 0, 1)
	g.AddEdge(2, 2, 1)
	if got := MaxMatchingSize(g, EdmondsKarp); got != 3 {
		t.Fatalf("matching size = %d, want 3", got)
	}
	if got := MaxMatchingSize(g, Dinic); got != 3 {
		t.Fatalf("dinic matching size = %d, want 3", got)
	}
}

// bruteMatching finds the max cardinality matching by exhaustive search —
// an oracle for small random graphs.
func bruteMatching(g *Graph) int {
	numF := g.NumF()
	best := 0
	var try func(f int, usedP map[int]bool, count int)
	try = func(f int, usedP map[int]bool, count int) {
		if count+(numF-f) <= best {
			return
		}
		if f == numF {
			if count > best {
				best = count
			}
			return
		}
		try(f+1, usedP, count) // leave f unmatched
		for _, e := range g.EdgesOfF(f) {
			if !usedP[e.P] {
				usedP[e.P] = true
				try(f+1, usedP, count+1)
				delete(usedP, e.P)
			}
		}
	}
	try(0, map[int]bool{}, 0)
	return best
}

func TestPropertyMatchingMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numP := 1 + rng.Intn(5)
		numF := 1 + rng.Intn(6)
		g := NewGraph(numP, numF)
		for p := 0; p < numP; p++ {
			for f := 0; f < numF; f++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(p, f, 1)
				}
			}
		}
		want := bruteMatching(g)
		if got := MaxMatchingSize(g, EdmondsKarp); got != want {
			t.Errorf("seed %d: EK matching %d, brute %d", seed, got, want)
			return false
		}
		if got := MaxMatchingSize(g, Dinic); got != want {
			t.Errorf("seed %d: Dinic matching %d, brute %d", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickConfig(60)); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAssignmentInvariants checks structural invariants of
// AssignMaxLocality on random equal-size inputs: owners are co-located,
// quotas never exceeded, and EK and Dinic place the same number of files.
func TestPropertyAssignmentInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numP := 1 + rng.Intn(6)
		numF := numP * (1 + rng.Intn(4))
		const size = 64
		g := NewGraph(numP, numF)
		for f := 0; f < numF; f++ {
			// each file co-located with up to 3 random processes
			perm := rng.Perm(numP)
			r := 1 + rng.Intn(3)
			if r > numP {
				r = numP
			}
			for _, p := range perm[:r] {
				g.AddEdge(p, f, size)
			}
		}
		quota := make([]int64, numP)
		per := int64(numF / numP * size)
		for p := range quota {
			quota[p] = per
		}
		rem := int64(numF%numP) * size
		for p := 0; rem > 0; p = (p + 1) % numP {
			quota[p] += size
			rem -= size
		}
		sizes := make([]int64, numF)
		for f := range sizes {
			sizes[f] = size
		}
		res := AssignMaxLocality(g, quota, sizes, EdmondsKarp)
		var assigned int64
		load := make([]int64, numP)
		for f, o := range res.Owner {
			if o == -1 {
				continue
			}
			if g.Weight(o, f) == 0 {
				t.Errorf("seed %d: file %d assigned to non-co-located process %d", seed, f, o)
				return false
			}
			load[o] += size
			assigned += size
		}
		for p := range load {
			if load[p] > quota[p] {
				t.Errorf("seed %d: process %d over quota: %d > %d", seed, p, load[p], quota[p])
				return false
			}
		}
		// With equal sizes the flow is integral per file, so the owned
		// sizes are the flow value: Dinic must reach it, and so must the
		// phased matcher under the same quotas in files.
		var assigned2 int64
		for _, o := range AssignMaxLocality(g, quota, sizes, Dinic).Owner {
			if o != -1 {
				assigned2 += size
			}
		}
		quotaFiles := make([]int, numP)
		for p, q := range quota {
			quotaFiles[p] = int(q / size)
		}
		_, matched, _ := matchRows(context.Background(), rowsOf(g), quotaFiles)
		if assigned2 != assigned || int64(matched)*size != assigned {
			t.Errorf("seed %d: EK owns %d MB, Dinic %d MB, the matcher %d files of %d MB", seed, assigned, assigned2, matched, size)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickConfig(50)); err != nil {
		t.Fatal(err)
	}
}
