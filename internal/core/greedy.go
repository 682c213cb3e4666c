package core

import (
	"context"
	"math/rand"
	"sort"
)

// GreedyLocality is a near-linear-time heuristic alternative to the
// flow-based single-data planner. §V-C2 of the paper notes that "as the
// problem size becomes extremely large, the matching method may not be
// scalable" and leaves the issue to future work; this planner is that
// future-work point, trading optimality for an O(E log E) pass:
//
//  1. order tasks by how few co-located processes they have (scarcest
//     first, the classic matching heuristic), and
//  2. give each task to its co-located process with the most remaining
//     quota, then
//  3. repair the leftovers exactly like the flow planner (finishAssignment).
//
// The ablation benchmarks (BenchmarkPlanner*) and the quality experiment
// compare it against the optimal flow matching: it typically reaches within
// a few percent of the flow planner's locality at a fraction of the cost.
type GreedyLocality struct {
	Seed int64
}

// Name implements Assigner.
func (GreedyLocality) Name() string { return "opass-greedy" }

// Assign implements Assigner.
func (g GreedyLocality) Assign(p *Problem) (*Assignment, error) {
	return g.AssignContext(context.Background(), p)
}

// AssignContext implements ContextAssigner. The candidate discovery that
// used to dominate — an O(m·n) CoLocatedMB probe sweep — now reads the
// locality index, whose O(edges) build yields the same candidate
// sets in the same ascending-process order with bit-identical MB values
// (the index contract), so plans are byte-identical to the probe-based
// planner; the greedy parity test checks the two paths against each other.
func (g GreedyLocality) AssignContext(ctx context.Context, p *Problem) (*Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n, m := len(p.Tasks), p.NumProcs()
	quotas := taskQuotas(n, m)

	ix, err := NewLocalityIndexContext(ctx, p)
	if err != nil {
		return nil, err
	}
	defer ix.Release()

	// Scarcest-first task order: fewest co-located processes first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if da, db := len(ix.TaskEdges(order[a])), len(ix.TaskEdges(order[b])); da != db {
			return da < db
		}
		return order[a] < order[b]
	})

	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	counts := make([]int, m)
	for i, t := range order {
		if i%indexCtxStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		best := -1
		var bestMB float64
		for _, e := range ix.TaskEdges(t) {
			proc := e.Proc
			if counts[proc] >= quotas[proc] {
				continue
			}
			// Most remaining quota keeps the assignment balanced; ties
			// break toward the larger co-located size, then lower rank.
			switch {
			case best == -1:
				best, bestMB = proc, e.MB
			case quotas[proc]-counts[proc] > quotas[best]-counts[best]:
				best, bestMB = proc, e.MB
			case quotas[proc]-counts[proc] == quotas[best]-counts[best] &&
				e.MB > bestMB:
				best, bestMB = proc, e.MB
			}
		}
		if best >= 0 {
			owner[t] = best
			counts[best]++
		}
	}

	return finishAssignment(p, ix, owner, nil, 0, rand.New(rand.NewSource(g.Seed))), nil
}
