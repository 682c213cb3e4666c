package core

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"opass/internal/bipartite"
	"opass/internal/dfs"
)

// planSpec reads a small problem off data, zero-extending a short input: up
// to 8 nodes and 8 processes, an optional rack map, up to 24 chunks of 1–3
// replicas, and up to 24 tasks. A mode byte picks single- or multi-input
// tasks (1–3 inputs), and one input size for every task — so the single-data
// planner takes its matcher path — or a size per input from a table that
// includes sub-MB sizes, or one size with some inputs cut to a file's tail
// (1/64 to 63/64 of it). Last comes a weight per process, zero included and
// at least one positive; zero bytes draw weight 1.
func planSpec(data []byte) (s layoutSpec, weights []float64) {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0]) % n
		data = data[1:]
		return v
	}
	sizeTable := []float64{64, 2.5, 1, 0.4, 48}
	s = layoutSpec{nodes: 1 + next(8)}
	for i, procs := 0, 1+next(8); i < procs; i++ {
		s.procNode = append(s.procNode, next(s.nodes))
	}
	if racks := next(3); racks > 0 {
		for i := 0; i < s.nodes; i++ {
			s.nodeRack = append(s.nodeRack, next(racks))
		}
	}
	for c, chunks := 0, 1+next(24); c < chunks; c++ {
		row := []int{next(s.nodes)}
		for mask := next(1 << s.nodes); mask != 0 && len(row) < 3; mask &= mask - 1 {
			if node := bits.TrailingZeros(uint(mask)); !slices.Contains(row, node) {
				row = append(row, node)
			}
		}
		s.sizes, s.rows = append(s.sizes, 64), append(s.rows, row)
	}
	mode, maxInputs := next(6), 1
	if mode >= 3 {
		maxInputs = 3
	}
	shape, size := mode%3, sizeTable[next(len(sizeTable))]
	for t, tasks := 0, 1+next(24); t < tasks; t++ {
		task := Task{ID: t}
		for i, inputs := 0, 1+next(maxInputs); i < inputs; i++ {
			in := Input{Chunk: dfs.ChunkID(next(len(s.sizes))), SizeMB: size}
			switch {
			case shape == 1:
				in.SizeMB = sizeTable[next(len(sizeTable))]
			case shape == 2 && next(4) == 0: // a file's tail chunk
				in.SizeMB = size * float64(1+next(63)) / 64
			}
			task.Inputs = append(task.Inputs, in)
		}
		s.tasks = append(s.tasks, task)
	}
	weightTable := []float64{1, 0, 0.5, 2, 3}
	positive := false
	for range s.procNode {
		w := weightTable[next(len(weightTable))]
		weights, positive = append(weights, w), positive || w > 0
	}
	if !positive {
		weights[next(len(weights))] = 1
	}
	return s, weights
}

// FuzzPlan holds every strategy AssignerFor serves, and the opass planner
// under one drawn per-process weight vector, to its contract on arbitrary
// small Layout-backed problems: a valid assignment, and each process within
// its quota — ⌊n/m⌋ or ⌈n/m⌉ tasks unweighted; exactly
// weightedTaskQuotas(n, m, weights) weighted, except for the single-data
// planner on unequal sizes, where its quota is the data share and it is
// held to it on the tasks its solver matched and, over all its tasks, to the
// quota plus the largest task, planning alike under no weights and all-ones
// weights. On equal sizes the
// single-data plan must also be maximum-locality: the tasks the matcher
// placed, times the task size, equal the Edmonds-Karp flow value over the
// locality relation under the same quotas. On unequal sizes its owners must
// be SingleData{Algorithm: Dinic}'s, every task its solver matched must be
// held whole by its owner, and Dinic and Edmonds-Karp must reach one flow
// value on the Figure 5 network under the data shares. The weighted exact
// multi-data plan must reach the transportation oracle under its weighted
// quotas. On every draw Algorithm 1 must choose the owners of
// referenceMultiData's sorted preference lists, and the unweighted exact
// planner must plan as much co-located data as the oracle
// (checkExactIsOptimal). Every plan's
// PlannedLocalMB, read off the index by the Opass planners, must be the
// probe's sum bit for bit (checkPlannedLocality).
func FuzzPlan(f *testing.F) {
	f.Add([]byte{})
	// Random byte strings long enough to fill every field: a spread of
	// equal- and unequal-size, single- and multi-input, racked and flat,
	// weighted problems for the fuzzer to mutate.
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 160)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, weights := planSpec(data)
		p := spec.csrBacked()
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		n, m := len(p.Tasks), p.NumProcs()
		scale := capacityScale(p)
		units := make([]int64, n)
		var total int64
		for task := range units {
			units[task] = capUnits(p.Tasks[task].SizeMB(), scale)
			total += units[task]
		}
		equal := !slices.ContainsFunc(units, func(u int64) bool { return u != units[0] })
		type planner struct {
			as      Assigner
			weights []float64 // the quota weights it plans under; nil is equal shares
		}
		var planners []planner
		for _, strategy := range []string{"opass", "rank", "random"} {
			as, err := AssignerFor(strategy, 9, spec.multi())
			if err != nil {
				t.Fatal(err)
			}
			planners = append(planners, planner{as: as})
		}
		if spec.multi() {
			planners = append(planners, planner{MultiExact{Seed: 9, Weights: weights}, weights})
		} else {
			planners = append(planners, planner{SingleData{Seed: 9, Weights: weights}, weights})
		}
		for _, pl := range planners {
			as, name := pl.as, pl.as.Name()
			if pl.weights != nil {
				name += " weighted"
			}
			a, err := as.Assign(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := a.Validate(p); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkPlannedLocality(t, name, p, a)
			matched, matchedUnits := 0, make([]int64, m)
			for task, ok := range a.Matched {
				if ok {
					matched++
					matchedUnits[a.Owner[task]] += units[task]
				}
			}
			_, flow := as.(SingleData)
			if flow && !equal {
				share := shareQuotas(total, m, pl.weights)
				for proc, got := range matchedUnits {
					if got > share[proc] {
						t.Fatalf("%s: process %d matched %d units over its share %d", name, proc, got, share[proc])
					}
				}
				checkMBQuotas(t, name, a, units, share)
				if pl.weights == nil {
					ones := make([]float64, m)
					for i := range ones {
						ones[i] = 1
					}
					if w, err := (SingleData{Seed: 9, Weights: ones}).Assign(p); err != nil || !slices.Equal(a.Owner, w.Owner) {
						t.Fatalf("%s: owners %v, under all-ones weights %v (%v)", name, a.Owner, w.Owner, err)
					}
				}
				dinic, err := SingleData{Seed: 9, Weights: pl.weights, Algorithm: bipartite.Dinic}.Assign(p)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(a.Owner, dinic.Owner) {
					t.Fatalf("%s: owners %v, Dinic's %v", name, a.Owner, dinic.Owner)
				}
				for task, ok := range a.Matched {
					if held := p.CoLocatedMB(a.Owner[task], task); ok && held != p.Tasks[task].SizeMB() {
						t.Fatalf("%s: task %d of %v MB matched to process %d, which holds %v MB of it", name, task, p.Tasks[task].SizeMB(), a.Owner[task], held)
					}
				}
				if d, ek := figure5Flow(p, share, units, bipartite.Dinic), figure5Flow(p, share, units, bipartite.EdmondsKarp); d != ek {
					t.Fatalf("%s: Dinic flow %d, Edmonds-Karp flow %d", name, d, ek)
				}
				continue
			}
			counts := weightedTaskQuotas(n, m, pl.weights)
			for proc, list := range a.Lists {
				if pl.weights != nil && len(list) != counts[proc] {
					t.Fatalf("%s: process %d owns %d tasks, its weighted quota is %d", name, proc, len(list), counts[proc])
				}
				if pl.weights == nil && len(list) != n/m && len(list) != (n+m-1)/m {
					t.Fatalf("%s: process %d owns %d of %d tasks over %d processes", name, proc, len(list), n, m)
				}
			}
			if _, exact := as.(MultiExact); exact && pl.weights != nil {
				if got, want := localUnits(p, a), referenceTransport(p, counts); got != want {
					t.Fatalf("%s: plans %d co-located units, the transportation oracle %d", name, got, want)
				}
			}
			if !flow {
				continue
			}
			quotas := make([]int64, m)
			for proc, c := range counts {
				quotas[proc] = int64(c) * units[0]
			}
			// Every capacity is a multiple of the task size, so the flow
			// moves whole tasks and its value is what its owners hold.
			if got, flowValue := int64(matched)*units[0], figure5Flow(p, quotas, units, bipartite.EdmondsKarp); got != flowValue {
				t.Fatalf("%s: matcher placed %d tasks of %d units = %d, Edmonds-Karp flow %d", name, matched, units[0], got, flowValue)
			}
		}
		// Algorithm 1 on every draw, single-input ones (all-equal preference
		// rows) included, against the sorted-preference reference.
		checkMatchesReference(t, "opass-matching", MultiData{Seed: 9}, p)
		checkExactIsOptimal(t, p)
	})
}

// checkMBQuotas fails t unless every process of a holds at most its data
// quota plus the largest task, in capacity units: the MB book's bound.
func checkMBQuotas(t *testing.T, name string, a *Assignment, units, quotas []int64) {
	t.Helper()
	load, largest := make([]int64, len(quotas)), slices.Max(units)
	for task, proc := range a.Owner {
		load[proc] += units[task]
	}
	for proc, got := range load {
		if got > quotas[proc]+largest {
			t.Fatalf("%s: process %d holds %d units, over its quota %d plus the largest task %d", name, proc, got, quotas[proc], largest)
		}
	}
}

// checkExactIsOptimal fails t unless MultiExact plans p within the count
// quotas with exactly the oracle's co-located units, and so no fewer than
// Algorithm 1 or, where its interval counts are the same quotas,
// rank-static. (With n mod m > 0 rank-static spreads the extra tasks over
// other processes than taskQuotas does, a plan outside the problem solved.)
func checkExactIsOptimal(t *testing.T, p *Problem) {
	t.Helper()
	a, err := MultiExact{Seed: 9}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	checkPlannedLocality(t, "opass-exact", p, a)
	quotas := taskQuotas(len(p.Tasks), p.NumProcs())
	checkCountQuotas(t, "opass-exact", p, a, quotas)
	got := localUnits(p, a)
	if want := referenceTransport(p, quotas); got != want {
		t.Fatalf("opass-exact plans %d co-located units, the transportation oracle %d", got, want)
	}
	md, err := MultiData{Seed: 9}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	checkPlannedLocality(t, "opass-matching", p, md)
	if alg1 := localUnits(p, md); got < alg1 {
		t.Fatalf("opass-exact plans %d co-located units, Algorithm 1 %d", got, alg1)
	}
	rank, err := RankStatic{}.Assign(p)
	if err != nil {
		t.Fatal(err)
	}
	if slices.EqualFunc(rank.Lists, quotas, func(l []int, q int) bool { return len(l) == q }) {
		if r := localUnits(p, rank); got < r {
			t.Fatalf("opass-exact plans %d co-located units, rank-static %d", got, r)
		}
	}
}

// checkPlannedLocality fails t unless a's planned totals are the probe's:
// PlannedLocalMB equal bit for bit to Σ_t p.CoLocatedMB(Owner[t], t) summed
// in task order, and PlannedTotalMB to p.TotalMB().
func checkPlannedLocality(t *testing.T, name string, p *Problem, a *Assignment) {
	t.Helper()
	var probed float64
	for task, proc := range a.Owner {
		probed += p.CoLocatedMB(proc, task)
	}
	if math.Float64bits(a.PlannedLocalMB) != math.Float64bits(probed) {
		t.Fatalf("%s: PlannedLocalMB %v (%#x), the probe sums %v (%#x)", name, a.PlannedLocalMB, math.Float64bits(a.PlannedLocalMB), probed, math.Float64bits(probed))
	}
	if a.PlannedTotalMB != p.TotalMB() {
		t.Fatalf("%s: PlannedTotalMB %v, the problem holds %v", name, a.PlannedTotalMB, p.TotalMB())
	}
}

// figure5Flow is the value of the Figure 5 network over p's locality
// relation under the given data quotas and task sizes (capacity units),
// built straight from the probe so it shares no code with the planner.
func figure5Flow(p *Problem, quotas, sizes []int64, algo bipartite.Algorithm) int64 {
	m, n := len(quotas), len(sizes)
	s, t := 0, 1+m+n
	fn := bipartite.NewFlowNetwork(t + 1)
	for proc, q := range quotas {
		fn.AddArc(s, 1+proc, q)
	}
	for proc := 0; proc < m; proc++ {
		for task := 0; task < n; task++ {
			if p.CoLocatedMB(proc, task) > 0 {
				fn.AddArc(1+proc, 1+m+task, sizes[task])
			}
		}
	}
	for task, size := range sizes {
		fn.AddArc(1+m+task, t, size)
	}
	if algo == bipartite.Dinic {
		return fn.MaxFlowDinic(s, t)
	}
	return fn.MaxFlowEK(s, t)
}
