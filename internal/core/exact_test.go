package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"opass/internal/bipartite"
	"opass/internal/dfs"
)

// referenceTransport is the oracle for MultiExact: per-unit successive
// shortest paths with potentials on the task-node network — source → task
// (every task with a holder), task → holder y at cost −m_t^y, task → hub
// at cost 0, process → sink up to its count quota, hub → sink unbounded —
// one unit of flow per Dijkstra. It returns the most co-located data any
// plan within the count quotas (summing to the task count) reaches, in
// costUnit units.
func referenceTransport(p *Problem, quotas []int) int64 {
	n, m := len(p.Tasks), p.NumProcs()
	unit := costUnit(p)
	ix := NewLocalityIndex(p)
	defer ix.Release()
	src, hub, sink := n+m, n+m+1, n+m+2
	nodes := n + m + 3
	type arc struct {
		to, rev int
		cap     int
		cost    int64
	}
	adj := make([][]arc, nodes)
	add := func(u, v, c int, cost int64) {
		adj[u] = append(adj[u], arc{to: v, rev: len(adj[v]), cap: c, cost: cost})
		adj[v] = append(adj[v], arc{to: u, rev: len(adj[u]) - 1, cost: -cost})
	}
	for t := 0; t < n; t++ {
		es := ix.taskEdges(t)
		if len(es) == 0 {
			continue
		}
		add(src, t, 1, 0)
		for _, e := range es {
			add(t, n+e.Proc, 1, -int64(math.Round(e.MB*unit)))
		}
		add(t, hub, 1, 0)
	}
	for proc, q := range quotas {
		add(n+proc, sink, q, 0)
	}
	add(hub, sink, n, 0)

	// Potentials: the initial network is a DAG, so one Bellman-Ford pass per
	// layer makes them exact shortest distances from the source.
	const inf = math.MaxInt64 / 4
	pi := make([]int64, nodes)
	for v := range pi {
		pi[v] = inf
	}
	pi[src] = 0
	for pass := 0; pass < 4; pass++ {
		for u := range adj {
			for _, a := range adj[u] {
				if a.cap > 0 && pi[u] < inf && pi[u]+a.cost < pi[a.to] {
					pi[a.to] = pi[u] + a.cost
				}
			}
		}
	}
	for v := range pi {
		if pi[v] == inf {
			pi[v] = 0
		}
	}
	var cost int64
	dist := make([]int64, nodes)
	done := make([]bool, nodes)
	from := make([][2]int, nodes) // predecessor node and arc index
	for {
		for v := range dist {
			dist[v], done[v] = inf, false
		}
		dist[src] = 0
		for {
			u := -1
			for v := range dist {
				if !done[v] && dist[v] < inf && (u < 0 || dist[v] < dist[u]) {
					u = v
				}
			}
			if u < 0 {
				break
			}
			done[u] = true
			for i, a := range adj[u] {
				if a.cap > 0 {
					if d := dist[u] + a.cost + pi[u] - pi[a.to]; d < dist[a.to] {
						dist[a.to], from[a.to] = d, [2]int{u, i}
					}
				}
			}
		}
		if dist[sink] >= inf {
			return -cost
		}
		for v := range pi {
			if dist[v] < inf {
				pi[v] += dist[v]
			}
		}
		for v := sink; v != src; {
			u, i := from[v][0], from[v][1]
			a := &adj[u][i]
			a.cap--
			adj[v][a.rev].cap++
			cost += a.cost
			v = u
		}
	}
}

// enumerateBest is the oracle's own check: the most co-located units of
// any owner vector whose per-process counts equal quotas, by trying them
// all. Only for a handful of tasks over at most three processes.
func enumerateBest(p *Problem, quotas []int) int64 {
	n, m := len(p.Tasks), p.NumProcs()
	unit := costUnit(p)
	counts := make([]int, m)
	best := int64(-1)
	var walk func(t int, sum int64)
	walk = func(t int, sum int64) {
		if t == n {
			best = max(best, sum)
			return
		}
		for proc := 0; proc < m; proc++ {
			if counts[proc] < quotas[proc] {
				counts[proc]++
				walk(t+1, sum+int64(math.Round(p.CoLocatedMB(proc, t)*unit)))
				counts[proc]--
			}
		}
	}
	walk(0, 0)
	return best
}

// localUnits is the co-located data of a plan in costUnit units, the
// quantity MultiExact maximises.
func localUnits(p *Problem, a *Assignment) int64 {
	unit := costUnit(p)
	var sum int64
	for t, proc := range a.Owner {
		sum += int64(math.Round(p.CoLocatedMB(proc, t) * unit))
	}
	return sum
}

// stage2Runs reports whether the tight matching leaves a task with a holder
// unmatched on p, so MultiExact's min-cost repair runs.
func stage2Runs(t *testing.T, p *Problem) bool {
	t.Helper()
	ix := NewLocalityIndex(p)
	defer ix.Release()
	tight, holders := ix.tightRows()
	matched, err := bipartite.MatchRows(context.Background(), tight, taskQuotas(len(p.Tasks), p.NumProcs()), make([]int, len(p.Tasks)))
	if err != nil {
		t.Fatal(err)
	}
	return matched < holders
}

// tinySpec draws a problem of at most 7 tasks over at most 3 processes,
// small enough to enumerate: 1–3 nodes, 1–6 chunks of 1–2 replicas, 1–3
// inputs per task with whole, half and sub-MB sizes.
func tinySpec(rng *rand.Rand) layoutSpec {
	s := layoutSpec{nodes: 1 + rng.Intn(3)}
	for i, procs := 0, 1+rng.Intn(3); i < procs; i++ {
		s.procNode = append(s.procNode, rng.Intn(s.nodes))
	}
	for c, chunks := 0, 1+rng.Intn(6); c < chunks; c++ {
		s.sizes = append(s.sizes, 64)
		s.rows = append(s.rows, rng.Perm(s.nodes)[:1+rng.Intn(min(2, s.nodes))])
	}
	sizes := []float64{30, 20, 10, 2.5, 0.4}
	for t, tasks := 0, 1+rng.Intn(7); t < tasks; t++ {
		task := Task{ID: t}
		for i, inputs := 0, 1+rng.Intn(3); i < inputs; i++ {
			task.Inputs = append(task.Inputs, Input{Chunk: dfs.ChunkID(rng.Intn(len(s.sizes))), SizeMB: sizes[rng.Intn(len(sizes))]})
		}
		s.tasks = append(s.tasks, task)
	}
	return s
}

// TestReferenceTransportMatchesEnumeration holds the oracle to brute force,
// and MultiExact to both, on every quota-respecting assignment of up to 7
// tasks over up to 3 processes: under equal counts, and under the
// weightedTaskQuotas of a drawn weight vector, zero weights included.
func TestReferenceTransportMatchesEnumeration(t *testing.T) {
	rng, wrng := rand.New(rand.NewSource(37)), rand.New(rand.NewSource(38))
	repaired := 0
	for i := 0; i < 2000; i++ {
		p := tinySpec(rng).csrBacked()
		n, m := len(p.Tasks), p.NumProcs()
		weights := make([]float64, m)
		for proc := range weights {
			weights[proc] = []float64{0, 0.5, 1, 2, 3}[wrng.Intn(5)]
		}
		weights[wrng.Intn(m)] = 1
		for _, me := range []MultiExact{{Seed: 1}, {Seed: 1, Weights: weights}} {
			quotas := weightedTaskQuotas(n, m, me.Weights)
			want := enumerateBest(p, quotas)
			if got := referenceTransport(p, quotas); got != want {
				t.Fatalf("draw %d, quotas %v: oracle %d units, enumeration %d", i, quotas, got, want)
			}
			a, err := me.Assign(p)
			if err != nil {
				t.Fatal(err)
			}
			checkCountQuotas(t, "MultiExact", p, a, quotas)
			if got := localUnits(p, a); got != want {
				t.Fatalf("draw %d, quotas %v: MultiExact plans %d units, enumeration %d", i, quotas, got, want)
			}
		}
		if stage2Runs(t, p) {
			repaired++
		}
	}
	if repaired < 100 {
		t.Fatalf("only %d of 2000 draws ran the min-cost repair", repaired)
	}
}

// skewedSpec is benchSpec with every replica on the first hot nodes: the
// placement that overloads a few best holders, so most tasks reach the
// min-cost repair.
func skewedSpec(nodes, hot, tasks int, seed int64) layoutSpec {
	s := benchSpec(nodes, tasks, []float64{30, 20, 10}, seed)
	rng := rand.New(rand.NewSource(seed))
	for i := range s.rows {
		s.rows[i] = rng.Perm(hot)[:min(3, hot)]
	}
	return s
}

// TestMultiExactEqualsOracle checks MultiExact against the oracle on
// problems large enough for multi-round repairs: small clusters, skewed and
// unreplicated placements, racks.
func TestMultiExactEqualsOracle(t *testing.T) {
	racked := benchSpec(16, 160, []float64{30, 20, 10}, 4)
	racked.nodeRack = make([]int, 16)
	for i := range racked.nodeRack {
		racked.nodeRack[i] = i % 4
	}
	unreplicated := benchSpec(16, 160, []float64{30, 20, 10}, 5)
	for i := range unreplicated.rows {
		unreplicated.rows[i] = unreplicated.rows[i][:1]
	}
	for name, p := range map[string]*Problem{
		"16x160":           benchSpec(16, 160, []float64{30, 20, 10}, 1).csrBacked(),
		"8x80":             benchSpec(8, 80, []float64{30, 20, 10}, 2).csrBacked(),
		"skewed 3 of 32":   skewedSpec(32, 3, 320, 3).csrBacked(),
		"skewed 5 of 24":   skewedSpec(24, 5, 100, 6).csrBacked(),
		"racked 16x160":    racked.csrBacked(),
		"unreplicated":     unreplicated.csrBacked(),
		"golden-multi":     goldenMultiProblem(t),
		"multi 4x12 seed":  multiProblem(t, 4, 12, 1693867134031852014),
		"uneven 7 procs":   benchSpec(7, 45, []float64{30, 20, 10}, 8).csrBacked(),
		"fewer tasks":      benchSpec(12, 5, []float64{30, 20, 10}, 9).csrBacked(),
		"sub-MB and whole": randomSpec(rand.New(rand.NewSource(10))).csrBacked(),
	} {
		a, err := MultiExact{Seed: 1}.Assign(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		quotas := taskQuotas(len(p.Tasks), p.NumProcs())
		checkCountQuotas(t, name, p, a, quotas)
		if got, want := localUnits(p, a), referenceTransport(p, quotas); got != want {
			t.Errorf("%s: MultiExact plans %d units, oracle %d (stage 2 ran: %v)", name, got, want, stage2Runs(t, p))
		}
	}
}

// checkCountQuotas fails t unless a is valid and every process owns exactly
// its count of quotas.
func checkCountQuotas(t *testing.T, name string, p *Problem, a *Assignment, quotas []int) {
	t.Helper()
	if err := a.Validate(p); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for proc, q := range quotas {
		if len(a.Lists[proc]) != q {
			t.Fatalf("%s: process %d owns %d tasks, quota %d", name, proc, len(a.Lists[proc]), q)
		}
	}
}

// TestMultiExactReachesTheBoundAtPaperScale: on the shape bench/ posts
// (256 processes × 2,560 tasks, 30/20/10 MB, three distinct uniform
// replicas) every plan reads Σ_t max_p m_t^p locally, the bound no
// assignment can pass.
func TestMultiExactReachesTheBoundAtPaperScale(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := benchSpec(256, 2560, []float64{30, 20, 10}, seed).csrBacked()
		ix := NewLocalityIndex(p)
		var bound float64
		for task := range p.Tasks {
			best := 0.0
			for _, e := range ix.taskEdges(task) {
				best = max(best, e.MB)
			}
			bound += best
		}
		ix.Release()
		a, err := MultiExact{Seed: 1}.Assign(p)
		if err != nil {
			t.Fatal(err)
		}
		checkCountQuotas(t, "paper", p, a, taskQuotas(len(p.Tasks), p.NumProcs()))
		if a.PlannedLocalMB != bound {
			t.Errorf("seed %d: MultiExact plans %v MB local, bound %v", seed, a.PlannedLocalMB, bound)
		}
	}
}
