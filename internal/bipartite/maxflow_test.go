package bipartite

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// quickConfig pins the property tests' input stream: quick.Check seeds from
// the clock by default, which turns a rare counterexample into a red build
// nobody can reproduce.
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

func TestMaxFlowSimplePath(t *testing.T) {
	fn := NewFlowNetwork(3)
	a := fn.AddArc(0, 1, 10)
	b := fn.AddArc(1, 2, 7)
	if got := fn.MaxFlowEK(0, 2); got != 7 {
		t.Fatalf("max flow = %d, want 7", got)
	}
	if fn.Flow(a) != 7 || fn.Flow(b) != 7 {
		t.Fatalf("arc flows = %d,%d, want 7,7", fn.Flow(a), fn.Flow(b))
	}
}

func TestMaxFlowClassicDiamond(t *testing.T) {
	// The textbook network where a greedy path choice requires cancellation
	// via the residual arc — the paper's "reassignment" behaviour.
	fn := NewFlowNetwork(4)
	fn.AddArc(0, 1, 1)
	fn.AddArc(0, 2, 1)
	fn.AddArc(1, 2, 1)
	fn.AddArc(1, 3, 1)
	fn.AddArc(2, 3, 1)
	if got := fn.MaxFlowEK(0, 3); got != 2 {
		t.Fatalf("max flow = %d, want 2", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	fn := NewFlowNetwork(4)
	fn.AddArc(0, 1, 5)
	fn.AddArc(2, 3, 5)
	if got := fn.MaxFlowEK(0, 3); got != 0 {
		t.Fatalf("max flow = %d, want 0", got)
	}
}

func TestFlowPanicsOnResidualArcID(t *testing.T) {
	fn := NewFlowNetwork(2)
	fn.AddArc(0, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd arc ID")
		}
	}()
	fn.Flow(1)
}

// randomNetwork builds a random DAG-ish flow network for oracle testing.
func randomNetwork(rng *rand.Rand) (*FlowNetwork, [][3]int64, int, int) {
	n := 4 + rng.Intn(8)
	fn := NewFlowNetwork(n)
	var arcs [][3]int64 // u, v, cap
	for i := 0; i < n*2; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		c := int64(rng.Intn(20))
		fn.AddArc(u, v, c)
		arcs = append(arcs, [3]int64{int64(u), int64(v), c})
	}
	return fn, arcs, 0, n - 1
}

// fordFulkersonRef is an independent, naive DFS-based max-flow used as an
// oracle. It uses map-based residual capacities, sharing no code with the
// production solvers.
func fordFulkersonRef(n int, arcs [][3]int64, s, t int) int64 {
	res := make([]map[int]int64, n)
	for i := range res {
		res[i] = map[int]int64{}
	}
	for _, a := range arcs {
		res[a[0]][int(a[1])] += a[2]
	}
	var total int64
	for {
		// DFS for any augmenting path.
		parent := make([]int, n)
		for i := range parent {
			parent[i] = -1
		}
		parent[s] = s
		stack := []int{s}
		for len(stack) > 0 && parent[t] == -1 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for v, c := range res[u] {
				if c > 0 && parent[v] == -1 {
					parent[v] = u
					stack = append(stack, v)
				}
			}
		}
		if parent[t] == -1 {
			return total
		}
		var bottleneck int64 = 1 << 60
		for v := t; v != s; v = parent[v] {
			if c := res[parent[v]][v]; c < bottleneck {
				bottleneck = c
			}
		}
		for v := t; v != s; v = parent[v] {
			res[parent[v]][v] -= bottleneck
			res[v][parent[v]] += bottleneck
		}
		total += bottleneck
	}
}

func TestPropertyMaxFlowMatchesOracle(t *testing.T) {
	prop := func(seed int64) bool {
		fn, arcs, s, tt := randomNetwork(rand.New(rand.NewSource(seed)))
		want := fordFulkersonRef(fn.n, arcs, s, tt)
		ek := fn.MaxFlowEK(s, tt)
		fn, _, _, _ = randomNetwork(rand.New(rand.NewSource(seed)))
		dn := fn.MaxFlowDinic(s, tt)
		if ek != want || dn != want {
			t.Errorf("seed %d: EK=%d Dinic=%d oracle=%d", seed, ek, dn, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickConfig(80)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFlowConservation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fn, _, s, tt := randomNetwork(rng)
		type arcRec struct{ u, v, id int }
		var recs []arcRec
		// Recover forward arcs from internal layout via AddArc order: forward
		// arcs are even IDs; reconstruct endpoints from the residual twin.
		for id := 0; id < len(fn.to); id += 2 {
			recs = append(recs, arcRec{u: fn.to[id^1], v: fn.to[id], id: id})
		}
		fn.MaxFlowEK(s, tt)
		net := make([]int64, fn.n)
		for _, r := range recs {
			f := fn.Flow(r.id)
			if f < 0 {
				t.Errorf("seed %d: negative flow", seed)
				return false
			}
			net[r.u] -= f
			net[r.v] += f
		}
		for v := 0; v < fn.n; v++ {
			if v == s || v == tt {
				continue
			}
			if net[v] != 0 {
				t.Errorf("seed %d: conservation violated at %d: %d", seed, v, net[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickConfig(60)); err != nil {
		t.Fatal(err)
	}
}
