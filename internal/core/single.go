package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"opass/internal/bipartite"
)

// SingleData is the Opass planner for parallel single-data access (§IV-B):
// every task consumes one chunk file and every process must receive an
// equal share of the data. The planner computes a maximum locality
// assignment on the flow network of Figure 5 — by maximum flow
// (Ford-Fulkerson, whose flow-augmenting paths implement the paper's
// assignment cancellation policy), or, when all tasks have one size and the
// network degenerates to quota-constrained matching, with the phased
// matcher — and then randomly assigns any unmatched tasks to processes that
// are still below their TotalSize/m share.
type SingleData struct {
	// Algorithm names the solver. The zero value (bipartite.Kuhn) is the
	// phased matcher, which solves equal-size problems directly; on unequal
	// sizes it falls back to Dinic. EdmondsKarp and Dinic force that flow
	// solver at any sizes, for tests and the §V-C2 ablation.
	Algorithm bipartite.Algorithm
	// Seed drives the random repair step for unmatched tasks.
	Seed int64
	// Weights optionally skews the per-process data share ("load
	// capacity", as the paper's abstract calls it): process i receives a
	// quota proportional to Weights[i] instead of the uniform TotalSize/m.
	// In the flow encoding the weights scale the source→process arc
	// capacities. Slow nodes on a heterogeneous cluster, or nodes already
	// hot with other jobs' reads (internal/globalsched), are given less.
	// nil means equal shares, as in the paper's evaluation; see checkWeights
	// for the rules a vector must meet.
	Weights []float64
}

// Name implements Assigner.
func (SingleData) Name() string { return "opass-flow" }

// Assign implements Assigner.
func (s SingleData) Assign(p *Problem) (*Assignment, error) {
	return s.AssignContext(context.Background(), p)
}

// AssignContext implements ContextAssigner: the locality-index build and
// the solver's augmenting loop poll ctx and abort with its error.
func (s SingleData) AssignContext(ctx context.Context, p *Problem) (*Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	for i := range p.Tasks {
		if len(p.Tasks[i].Inputs) != 1 {
			return nil, fmt.Errorf("core: single-data planner given task %d with %d inputs; use MultiExact", i, len(p.Tasks[i].Inputs))
		}
	}
	if err := checkWeights(p, s.Weights); err != nil {
		return nil, err
	}
	n, m, weights := len(p.Tasks), p.NumProcs(), s.Weights
	ix, err := NewLocalityIndexContext(ctx, p)
	if err != nil {
		return nil, err
	}
	// The index is request-scoped: hand its buffers back to the pool on
	// every exit path so a service replanning at 1M tasks reuses them
	// instead of paying the allocator per request.
	defer ix.Release()
	scale := capacityScale(p)

	// The solver seam. Equal sizes degenerate the flow problem to quota-
	// constrained bipartite matching, whose constraint is really "equal (or
	// weight-proportional) task counts": the matcher solves it in place on
	// the index's task rows. Unequal sizes, or a named flow solver, run one
	// max flow over the index's process rows under per-process data quotas:
	// TotalSize/m (or weight-proportional shares), with the rounding
	// remainder spread over the first processes. On equal sizes the data
	// quota is the count times the size, which keeps the flow correct even
	// with fewer tasks than processes (TotalSize/m would then be smaller
	// than one task and nothing could match) and strands no slack on a
	// weighted process (an MB quota of 8.5 tasks would, and the stranded
	// tasks would be re-homed with no regard for locality). Sizes are
	// compared in whole capacity units (1/scale MB); unit is the common one,
	// or 0 when they differ, and only the flow reads per-task sizes.
	unit := capUnits(p.Tasks[0].SizeMB(), scale)
	for t := 1; t < n && unit != 0; t++ {
		if capUnits(p.Tasks[t].SizeMB(), scale) != unit {
			unit = 0
		}
	}
	var counts []int
	var quotasMB []int64
	if unit != 0 {
		counts = weightedTaskQuotas(n, m, weights)
		quotasMB = make([]int64, m)
		for i, c := range counts {
			quotasMB[i] = int64(c) * unit
		}
	}
	b := takeAnswer(n)
	if counts != nil && s.Algorithm == bipartite.Kuhn {
		var rows *bipartite.Rows
		if rows, err = ix.taskRows(ctx); err == nil {
			_, err = bipartite.MatchRows(ctx, rows, counts, b.owner)
		}
	} else {
		sizes := make([]int64, n)
		var total int64
		for t := range sizes {
			sizes[t] = capUnits(p.Tasks[t].SizeMB(), scale)
			total += sizes[t]
		}
		if quotasMB == nil {
			quotasMB = shareQuotas(total, m, weights)
		}
		var res bipartite.AssignResult
		if res, err = bipartite.AssignMaxLocalityContext(ctx, ix.procRows(), quotasMB, sizes, s.Algorithm); err == nil {
			copy(b.owner, res.Owner)
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		answerPool.Put(b)
		return nil, err
	}
	// The repair keeps the book the solver planned under: equal task counts
	// for unweighted equal sizes, else the MB quotas — so no weights and
	// all-ones weights plan alike. Every process then ends within its quota
	// plus one task: the solver's loads are within quota, and while a task
	// remains some process is under its quota, so the repair only ever gives
	// to a process with headroom.
	if counts != nil && weights == nil {
		return finishAssignment(p, ix, b, counts, nil, scale, s.Seed), nil
	}
	return finishAssignment(p, ix, b, nil, quotasMB, scale, s.Seed), nil
}

// weightedTaskQuotas splits n tasks over m processes proportionally to
// weights, rounding by largest remainder so the counts sum to n exactly.
// The deficit after flooring equals the sum of the fractional parts, so it
// is always covered by processes with a positive remainder — zero-weight
// processes never receive a task. The weights have passed checkWeights;
// nil means taskQuotas' equal counts.
func weightedTaskQuotas(n, m int, weights []float64) []int {
	if weights == nil {
		return taskQuotas(n, m)
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	counts := make([]int, m)
	order := make([]int, m)
	rem := make([]float64, m)
	given := 0
	for i, w := range weights {
		exact := float64(n) * w / sum
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		order[i] = i
		given += counts[i]
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for k := 0; given < n; k++ {
		counts[order[k%m]]++
		given++
	}
	return counts
}

// shareQuotas splits total MB over m processes — equally when weights is
// nil, else proportionally to weights, which have passed checkWeights —
// spreading the integer remainder over the first processes so the quotas
// sum exactly to total.
func shareQuotas(total int64, m int, weights []float64) []int64 {
	quotas := make([]int64, m)
	if weights == nil {
		base, rem := total/int64(m), total%int64(m)
		for i := range quotas {
			quotas[i] = base
			if int64(i) < rem {
				quotas[i]++
			}
		}
		return quotas
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	var given int64
	for i, w := range weights {
		quotas[i] = int64(float64(total) * w / sum)
		given += quotas[i]
	}
	for i := 0; given < total; i = (i + 1) % m {
		if weights[i] > 0 {
			quotas[i]++
			given++
		}
	}
	return quotas
}

// RankStatic is the baseline assignment the paper attributes to ParaView
// (§II-B): process i receives the contiguous file interval
// [i*n/m, (i+1)*n/m), decided purely by process rank with no knowledge of
// data placement.
type RankStatic struct{}

// Name implements Assigner.
func (RankStatic) Name() string { return "rank-static" }

// Assign implements Assigner.
func (RankStatic) Assign(p *Problem) (*Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n, m := len(p.Tasks), p.NumProcs()
	b := takeAnswer(n)
	for i := 0; i < m; i++ {
		lo := i * n / m
		hi := (i + 1) * n / m
		for t := lo; t < hi; t++ {
			b.owner[t] = i
		}
	}
	return newAssignment(p, nil, b, nil), nil
}

// RandomStatic deals tasks to processes uniformly at random while keeping
// task counts equal — a second locality-oblivious baseline that removes the
// rank-interval correlation of RankStatic.
type RandomStatic struct {
	Seed int64
}

// Name implements Assigner.
func (RandomStatic) Name() string { return "random-static" }

// Assign implements Assigner.
func (r RandomStatic) Assign(p *Problem) (*Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n, m := len(p.Tasks), p.NumProcs()
	rng := rand.New(rand.NewSource(r.Seed))
	perm := rng.Perm(n)
	b := takeAnswer(n)
	quotas := taskQuotas(n, m)
	proc, used := 0, 0
	for _, t := range perm {
		for used >= quotas[proc] {
			proc++
			used = 0
		}
		b.owner[t] = proc
		used++
	}
	return newAssignment(p, nil, b, nil), nil
}
