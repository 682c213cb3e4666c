package bipartite

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// flowMatchingOracle computes the quota-constrained maximum matching size
// via max flow under the named flow algorithm — the ground truth for
// MatchAugmenting.
func flowMatchingOracle(g *Graph, quota []int, algo Algorithm) int {
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
	if algo == Dinic {
		return int(fn.MaxFlowDinic(s, t))
	}
	return int(fn.MaxFlowEK(s, t))
}

// checkMatching reports how (owner, size) fails to be a quota-respecting
// matching of g's edges of the flow oracles' size, or "" when it is one.
func checkMatching(g *Graph, quota, owner []int, size int) string {
	if dinic, ek := flowMatchingOracle(g, quota, Dinic), flowMatchingOracle(g, quota, EdmondsKarp); size != dinic || size != ek {
		return fmt.Sprintf("matcher size %d, dinic %d, edmonds-karp %d", size, dinic, ek)
	}
	counts := make([]int, g.NumP())
	matched := 0
	for f, p := range owner {
		if p == -1 {
			continue
		}
		matched++
		counts[p]++
		if g.Weight(p, f) == 0 {
			return fmt.Sprintf("file %d matched to non-adjacent process %d", f, p)
		}
	}
	if matched != size {
		return fmt.Sprintf("owner holds %d files, size says %d", matched, size)
	}
	for p, c := range counts {
		if c > quota[p] {
			return fmt.Sprintf("process %d owns %d files over quota %d", p, c, quota[p])
		}
	}
	return ""
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
		if msg := checkMatching(g, quota, owner, size); msg != "" {
			t.Errorf("seed %d: %s", seed, msg)
			return false
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
	want := flowMatchingOracle(g, quota, Dinic)
	if size != want {
		t.Fatalf("matcher %d != flow %d", size, want)
	}
	if size < 630 {
		t.Fatalf("matching %d unexpectedly small", size)
	}
}

// phasedChain is a graph whose maximum matching takes three augmenting
// phases under unit quotas: the first is the greedy pass, the second moves
// f3 over so f4 fits (one displacement), the third shifts f0 and f1 along
// the chain p0→p1→p2 so f2 fits (two displacements, so it is layered one
// phase later than the shorter path).
func phasedChain() (*Graph, []int) {
	g := NewGraph(5, 5)
	for _, e := range [][2]int{{0, 0}, {1, 0}, {1, 1}, {2, 1}, {0, 2}, {3, 3}, {4, 3}, {3, 4}} {
		g.AddEdge(e[0], e[1], 1)
	}
	return g, []int{1, 1, 1, 1, 1}
}

func TestMatchAugmentingPhasedChain(t *testing.T) {
	g, quota := phasedChain()
	owner, size := MatchAugmenting(g, quota)
	if want := []int{1, 2, 0, 4, 3}; size != 5 || !slices.Equal(owner, want) {
		t.Fatalf("owner = %v size %d, want %v size 5", owner, size, want)
	}
}

// flipCtx is live for its first Err call and cancelled from the second on.
type flipCtx struct {
	context.Context
	polls int
}

func (c *flipCtx) Err() error {
	c.polls++
	if c.polls > 1 {
		return context.Canceled
	}
	return nil
}

// TestMatchAugmentingCancelMidway cancels after the first poll on a graph
// that needs several phases: the matcher must notice at the next phase
// boundary and hand back no partial matching.
func TestMatchAugmentingCancelMidway(t *testing.T) {
	g, quota := phasedChain()
	ctx := &flipCtx{Context: context.Background()}
	owner, size, err := MatchRows(ctx, rowsOf(g), quota)
	if owner != nil || size != 0 || !errors.Is(err, context.Canceled) {
		t.Fatalf("got (%v, %d, %v), want (nil, 0, context.Canceled)", owner, size, err)
	}
	if ctx.polls != 2 {
		t.Fatalf("ctx polled %d times before the matcher stopped, want 2 (once per phase)", ctx.polls)
	}
}

func TestMatchAugmentingQuotaHygiene(t *testing.T) {
	g, _ := phasedChain()
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "quota[2] = -1") {
				t.Errorf("negative quota: recovered %q, want a panic naming quota[2]", msg)
			}
		}()
		MatchAugmenting(g, []int{1, 1, -1, 1, 1})
	}()
	// Slots are clamped to what a process can own, so an unbounded quota
	// neither overflows the carve nor allocates per unit of quota.
	huge := []int{math.MaxInt, math.MaxInt, math.MaxInt, math.MaxInt, math.MaxInt}
	owner, size := MatchAugmenting(g, huge)
	if msg := checkMatching(g, huge, owner, size); msg != "" || size != 5 {
		t.Fatalf("MaxInt quotas: size %d %s", size, msg)
	}
}

// fuzzGraph decodes bytes into a small locality relation and a quota
// vector: procs-1 (mod 8), files-1 (mod 24), one quota byte per process (mod
// 32, so both 0 and values above the file count occur), then one byte per
// file whose low bits are the processes it is co-located with — edges are
// duplicate-free by construction. The relation comes back twice: as the
// file-side rows the matcher reads, built straight from the masks, and as
// the Graph the flow oracles read. Missing bytes read as zero.
func fuzzGraph(data []byte) (*Rows, *Graph, []int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	numP, numF := 1+int(next()%8), 1+int(next()%24)
	quota := make([]int, numP)
	for p := range quota {
		quota[p] = int(next() % 32)
	}
	rows := &Rows{Off: make([]int, 1, numF+1)}
	g := NewGraph(numP, numF)
	for f := 0; f < numF; f++ {
		mask := next()
		for p := 0; p < numP; p++ {
			if mask&(1<<p) != 0 {
				rows.Edges = append(rows.Edges, LocalityEdge{Proc: p, Task: f, MB: 1})
				g.AddEdge(p, f, 1)
			}
		}
		rows.Off = append(rows.Off, len(rows.Edges))
	}
	return rows, g, quota
}

// FuzzMatchAugmenting holds the matcher to both flow oracles on arbitrary
// small relations: same size, only real edges, quotas respected, the same
// owners on a second call, and the same owners through the Graph adapter.
func FuzzMatchAugmenting(f *testing.F) {
	f.Add([]byte{1, 1, 1, 1, 0b11, 0b01})                                                   // TestMatchAugmentingNeedsDisplacement
	f.Add([]byte{4, 4, 1, 1, 1, 1, 1, 0b00011, 0b00110, 0b00001, 0b11000, 0b01000})         // phasedChain: three phases
	f.Add([]byte{2, 3, 2, 2, 2, 0b011, 0, 0b110, 0b101})                                    // file 1 is isolated
	f.Add([]byte{3, 5, 0, 0, 0, 0, 0b1111, 0b0101, 0b0011, 0b1000, 0b0110, 0b1001})         // all-zero quotas
	f.Add([]byte{1, 23, 31, 0, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3, 1, 3}) // quota above the file count
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, g, quota := fuzzGraph(data)
		owner, size, err := MatchRows(context.Background(), rows, quota)
		if err != nil {
			t.Fatal(err)
		}
		if msg := checkMatching(g, quota, owner, size); msg != "" {
			t.Fatalf("quota %v: %s (owner %v)", quota, msg, owner)
		}
		if again, _, _ := MatchRows(context.Background(), rows, quota); !slices.Equal(owner, again) {
			t.Fatalf("quota %v: second call returned %v, first %v", quota, again, owner)
		}
		if viaGraph, n := MatchAugmenting(g, quota); n != size || !slices.Equal(owner, viaGraph) {
			t.Fatalf("quota %v: Graph adapter returned %v (size %d), rows %v (size %d)", quota, viaGraph, n, owner, size)
		}
	})
}
