package core

import (
	"math/rand"
	"sort"
	"testing"

	"opass/internal/dfs"
)

// greedyProbeReference is the pre-index GreedyLocality implementation,
// kept verbatim as the parity oracle: candidate sets discovered by the
// O(m·n) CoLocatedMB probe sweep, scarcest-first ordering, most-remaining-
// quota assignment with probe-valued tie-breaks, then the shared repair
// pipeline. The index-backed planner must reproduce its plans byte for
// byte.
func greedyProbeReference(t *testing.T, p *Problem, seed int64) *Assignment {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	n, m := len(p.Tasks), p.NumProcs()
	quotas := taskQuotas(n, m)

	cand := make([][]int, n)
	for task := 0; task < n; task++ {
		for proc := 0; proc < m; proc++ {
			if p.CoLocatedMB(proc, task) > 0 {
				cand[task] = append(cand[task], proc)
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if len(cand[order[a]]) != len(cand[order[b]]) {
			return len(cand[order[a]]) < len(cand[order[b]])
		}
		return order[a] < order[b]
	})

	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	counts := make([]int, m)
	for _, task := range order {
		best := -1
		for _, proc := range cand[task] {
			if counts[proc] >= quotas[proc] {
				continue
			}
			switch {
			case best == -1:
				best = proc
			case quotas[proc]-counts[proc] > quotas[best]-counts[best]:
				best = proc
			case quotas[proc]-counts[proc] == quotas[best]-counts[best] &&
				p.CoLocatedMB(proc, task) > p.CoLocatedMB(best, task):
				best = proc
			}
		}
		if best >= 0 {
			owner[task] = best
			counts[best]++
		}
	}

	// The shared repair pipeline only reads the index's rack tier.
	ix := NewLocalityIndex(p)
	defer ix.Release()
	return finishAssignment(p, ix, owner, nil, 0, rand.New(rand.NewSource(seed)))
}

// TestGreedyLocalityIndexParity proves the index-backed greedy planner is
// byte-identical to the probe-based one across placements, problem sizes
// spanning small and large index builds, multi-input tasks,
// and the rack tier.
func TestGreedyLocalityIndexParity(t *testing.T) {
	type prob struct {
		name string
		p    *Problem
		seed int64
	}
	var cases []prob
	for _, c := range []struct {
		name   string
		nodes  int
		chunks int
		seed   int64
		pol    dfs.Placement
	}{
		{"random small", 8, 64, 1, dfs.RandomPlacement{}},
		{"random medium", 16, 160, 2, dfs.RandomPlacement{}},
		{"round-robin", 12, 96, 3, dfs.RoundRobinPlacement{}},
		{"large index build", 24, 512 + 32, 4, dfs.RandomPlacement{}},
		{"skewed clustered", 10, 80, 5, dfs.ClusteredPlacement{}},
	} {
		p, _ := buildSingle(t, c.nodes, c.chunks, c.seed, c.pol)
		cases = append(cases, prob{c.name, p, c.seed})
	}
	cases = append(cases, prob{"multi-data", goldenMultiProblem(t), 11})
	{
		p, _ := buildSingle(t, 16, 128, 6, dfs.RandomPlacement{})
		racks := make([]int, 16)
		for i := range racks {
			racks[i] = i / 4
		}
		p.NodeRack = racks
		cases = append(cases, prob{"rack-tiered", p, 13})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := greedyProbeReference(t, c.p, c.seed)
			got, err := GreedyLocality{Seed: c.seed}.Assign(c.p)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(c.p); err != nil {
				t.Fatal(err)
			}
			for task := range want.Owner {
				if got.Owner[task] != want.Owner[task] {
					t.Fatalf("task %d owned by %d, probe reference says %d", task, got.Owner[task], want.Owner[task])
				}
			}
			if got.PlannedLocalMB != want.PlannedLocalMB || got.PlannedTotalMB != want.PlannedTotalMB {
				t.Fatalf("locality (%v/%v), reference (%v/%v)",
					got.PlannedLocalMB, got.PlannedTotalMB, want.PlannedLocalMB, want.PlannedTotalMB)
			}
			for proc := range want.Lists {
				if len(got.Lists[proc]) != len(want.Lists[proc]) {
					t.Fatalf("proc %d list length %d, want %d", proc, len(got.Lists[proc]), len(want.Lists[proc]))
				}
				for i := range want.Lists[proc] {
					if got.Lists[proc][i] != want.Lists[proc][i] {
						t.Fatalf("proc %d list[%d] = %d, want %d", proc, i, got.Lists[proc][i], want.Lists[proc][i])
					}
				}
			}
		})
	}
}
