package core

import (
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
// includes sub-MB sizes.
func planSpec(data []byte) layoutSpec {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0]) % n
		data = data[1:]
		return v
	}
	sizeTable := []float64{64, 2.5, 1, 0.4, 48}
	s := layoutSpec{nodes: 1 + next(8)}
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
	mode, maxInputs := next(4), 1
	if mode&2 != 0 {
		maxInputs = 3
	}
	equal, size := mode&1 == 0, sizeTable[next(len(sizeTable))]
	for t, tasks := 0, 1+next(24); t < tasks; t++ {
		task := Task{ID: t}
		for i, inputs := 0, 1+next(maxInputs); i < inputs; i++ {
			in := Input{Chunk: dfs.ChunkID(next(len(s.sizes))), SizeMB: size}
			if !equal {
				in.SizeMB = sizeTable[next(len(sizeTable))]
			}
			task.Inputs = append(task.Inputs, in)
		}
		s.tasks = append(s.tasks, task)
	}
	return s
}

// FuzzPlan holds every strategy AssignerFor serves to its contract on
// arbitrary small Layout-backed problems: a valid assignment, and each
// process within its quota — ⌊n/m⌋ or ⌈n/m⌉ tasks, except the single-data
// planner on unequal sizes, whose quota is the data share and which is held
// to it on the tasks its solver matched. On equal sizes the single-data plan
// must also be maximum-locality: the tasks the matcher placed, times the
// task size, equal the Edmonds-Karp flow value over the locality graph.
func FuzzPlan(f *testing.F) {
	f.Add([]byte{})
	// Random byte strings long enough to fill every field: a spread of
	// equal- and unequal-size, single- and multi-input, racked and flat
	// problems for the fuzzer to mutate.
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 160)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec := planSpec(data)
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
		equal := equalSizes(units)
		for _, strategy := range []string{"opass", "rank", "random", "greedy"} {
			as, err := AssignerFor(strategy, 9, spec.multi())
			if err != nil {
				t.Fatal(err)
			}
			a, err := as.Assign(p)
			if err != nil {
				t.Fatalf("%s: %v", as.Name(), err)
			}
			if err := a.Validate(p); err != nil {
				t.Fatalf("%s: %v", as.Name(), err)
			}
			matched, matchedUnits := 0, make([]int64, m)
			for task, ok := range a.Matched {
				if ok {
					matched++
					matchedUnits[a.Owner[task]] += units[task]
				}
			}
			_, flow := as.(SingleData)
			if flow && !equal {
				share, err := shareQuotas(total, m, nil)
				if err != nil {
					t.Fatal(err)
				}
				for proc, got := range matchedUnits {
					if got > share[proc] {
						t.Fatalf("%s: process %d matched %d units over its share %d", as.Name(), proc, got, share[proc])
					}
				}
				continue
			}
			for proc, list := range a.Lists {
				if len(list) != n/m && len(list) != (n+m-1)/m {
					t.Fatalf("%s: process %d owns %d of %d tasks over %d processes", as.Name(), proc, len(list), n, m)
				}
			}
			if !flow {
				continue
			}
			ix := NewLocalityIndex(p)
			quotas := make([]int64, m)
			for proc, c := range taskQuotas(n, m) {
				quotas[proc] = int64(c) * units[0]
			}
			oracle := bipartite.AssignMaxLocality(localityGraph(p, ix, scale), quotas, units, bipartite.EdmondsKarp)
			ix.Release()
			if got := int64(matched) * units[0]; got != oracle.LocalMB {
				t.Fatalf("matcher placed %d tasks of %d units = %d, Edmonds-Karp flow %d", matched, units[0], got, oracle.LocalMB)
			}
		}
	})
}
