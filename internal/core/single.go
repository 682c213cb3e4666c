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
	// sizes it falls back to Edmonds-Karp. EdmondsKarp and Dinic force that
	// flow solver at any sizes, for tests and the §V-C2 ablation.
	Algorithm bipartite.Algorithm
	// Seed drives the random repair step for unmatched tasks.
	Seed int64
	// Weights optionally skews the per-process data share ("load
	// capacity", as the paper's abstract calls it): process i receives a
	// quota proportional to Weights[i] instead of the uniform TotalSize/m.
	// Useful on heterogeneous clusters where slow nodes should read less.
	// nil means equal shares, as in the paper's evaluation.
	Weights []float64
	// NodeBias optionally discounts the share of every process hosted on a
	// given node: process i's quota is multiplied by NodeBias[ProcNode[i]].
	// Factors must be in (0, 1]; nil means no bias. In the flow encoding
	// the factors scale the source→process arc capacities, which is how the
	// cluster-level scheduler steers an arriving job away from nodes that
	// are already hot with earlier jobs' reads (locality-vs-balance knob).
	NodeBias []float64
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
			return nil, fmt.Errorf("core: single-data planner given task %d with %d inputs; use MultiData", i, len(p.Tasks[i].Inputs))
		}
	}
	n, m := len(p.Tasks), p.NumProcs()
	// Fold the per-node bias into the per-process weights: both end up as
	// the source-arc capacities of the flow network, so a biased-down node
	// simply offers its processes a smaller share of the data.
	weights := s.Weights
	if weights != nil && len(weights) != m {
		return nil, fmt.Errorf("core: %d weights for %d processes", len(weights), m)
	}
	if pb, err := procBias(p, s.NodeBias); err != nil {
		return nil, err
	} else if pb != nil {
		combined := make([]float64, m)
		for i := range combined {
			combined[i] = pb[i]
			if weights != nil {
				combined[i] *= weights[i]
			}
		}
		weights = combined
	}
	ix, err := NewLocalityIndexContext(ctx, p)
	if err != nil {
		return nil, err
	}
	// The index is request-scoped: hand its buffers back to the pool on
	// every exit path so a service replanning at 1M tasks reuses them
	// instead of paying the allocator per request.
	defer ix.Release()
	scale := capacityScale(p)

	// Per-process data quota: TotalSize/m (or weight-proportional shares),
	// in whole capacity units (1/scale MB) with the rounding remainder
	// spread over the first processes so quotas sum to the total.
	sizes := make([]int64, n)
	var total int64
	for t := range sizes {
		sizes[t] = capUnits(p.Tasks[t].SizeMB(), scale)
		total += sizes[t]
	}
	quotasMB, err := shareQuotas(total, m, weights)
	if err != nil {
		return nil, err
	}
	equal := equalSizes(sizes)
	if equal {
		// With equal task sizes the paper's constraint is really "equal
		// (or weight-proportional) task counts"; expressing the quota as
		// counts*size keeps the flow formulation correct even when there
		// are fewer tasks than processes (TotalSize/m would then be
		// smaller than one task and nothing could match). The weighted
		// path needs this just as much: an MB quota of 8.5 tasks strands
		// half a task of slack on every process, and the stranded tasks
		// would then be re-homed with no regard for locality.
		counts := taskQuotas(n, m)
		if weights != nil {
			counts = weightedTaskQuotas(n, m, weights)
		}
		for i := range quotasMB {
			quotasMB[i] = int64(counts[i]) * sizes[0]
		}
	}

	// The solver seam. Equal sizes degenerate the flow problem to quota-
	// constrained bipartite matching, which the matcher solves in place on
	// the index's task rows; unequal sizes, or a named flow solver, build the
	// locality graph and go through the network of Figure 5.
	var owner []int
	if equal && s.Algorithm == bipartite.Kuhn {
		quotaTasks := make([]int, m)
		for i, q := range quotasMB {
			quotaTasks[i] = int(q / sizes[0])
		}
		owner, _, err = bipartite.MatchRows(ctx, &ix.buf.byTask, quotaTasks)
	} else {
		var res bipartite.AssignResult
		res, err = bipartite.AssignMaxLocalityContext(ctx, localityGraph(p, ix, scale), quotasMB, sizes, s.Algorithm)
		owner = res.Owner
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Weighted shares are repaired against the MB quotas the solver used,
	// equal shares against equal task counts (a nil ledger quota).
	var repairMB []int64
	if weights != nil {
		repairMB = quotasMB
	}
	return finishAssignment(p, ix, owner, repairMB, scale, rand.New(rand.NewSource(s.Seed))), nil
}

// equalSizes reports whether every task size is identical.
func equalSizes(sizes []int64) bool {
	for _, s := range sizes[1:] {
		if s != sizes[0] {
			return false
		}
	}
	return true
}

// weightedTaskQuotas splits n tasks over m processes proportionally to
// weights, rounding by largest remainder so the counts sum to n exactly.
// The deficit after flooring equals the sum of the fractional parts, so it
// is always covered by processes with a positive remainder — zero-weight
// processes never receive a task. Weights are validated by shareQuotas
// before this runs.
func weightedTaskQuotas(n, m int, weights []float64) []int {
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
// nil, else proportionally to weights — spreading the integer remainder
// over the first processes so the quotas sum exactly to total.
func shareQuotas(total int64, m int, weights []float64) ([]int64, error) {
	quotas := make([]int64, m)
	if weights == nil {
		base, rem := total/int64(m), total%int64(m)
		for i := range quotas {
			quotas[i] = base
			if int64(i) < rem {
				quotas[i]++
			}
		}
		return quotas, nil
	}
	if len(weights) != m {
		return nil, fmt.Errorf("core: %d weights for %d processes", len(weights), m)
	}
	var sum float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("core: weight[%d] = %v must be non-negative", i, w)
		}
		sum += w
	}
	if sum <= 0 {
		return nil, fmt.Errorf("core: weights sum to zero")
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
	return quotas, nil
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
	owner := make([]int, n)
	for i := 0; i < m; i++ {
		lo := i * n / m
		hi := (i + 1) * n / m
		for t := lo; t < hi; t++ {
			owner[t] = i
		}
	}
	return newAssignment(p, owner, nil), nil
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
	owner := make([]int, n)
	quotas := taskQuotas(n, m)
	proc, used := 0, 0
	for _, t := range perm {
		for used >= quotas[proc] {
			proc++
			used = 0
		}
		owner[t] = proc
		used++
	}
	return newAssignment(p, owner, nil), nil
}
