package core

import (
	"cmp"
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// MultiData is the Opass planner for tasks with multiple data inputs
// (Algorithm 1, §IV-C). It generalizes the stable-marriage procedure to a
// one-to-many matching: every under-quota process proposes to the
// not-yet-considered task with the largest co-located data size; a task
// accepts a proposal when it is unassigned or when the proposer holds more
// of its data than its current owner (reassignment, Figure 6b). The
// algorithm is optimal from the perspective of each process, like the
// proposer-optimal Gale-Shapley matching.
type MultiData struct {
	// Seed drives the random placement of tasks that no process holds any
	// data for.
	Seed int64
	// NodeBias optionally discounts the proposal values of every process
	// hosted on a given node: process i proposes with
	// NodeBias[ProcNode[i]] * m_i^j instead of the raw co-located size.
	// Factors must be in (0, 1]; nil means no bias. A biased-down (hot)
	// process still prefers its own most-local tasks — the factor is
	// constant within a process, so its preference order is unchanged —
	// but it loses contested tasks to processes on cold nodes, which is
	// how the cluster-level scheduler trades locality for global balance.
	NodeBias []float64
}

// Name implements Assigner.
func (MultiData) Name() string { return "opass-matching" }

// Assign implements Assigner.
func (md MultiData) Assign(p *Problem) (*Assignment, error) {
	return md.AssignContext(context.Background(), p)
}

// proposalCtxStride is how many proposals the matching loop makes between
// context polls.
const proposalCtxStride = 4096

// AssignContext implements ContextAssigner: the index build and the
// proposal rounds poll ctx and abort with its error.
func (md MultiData) AssignContext(ctx context.Context, p *Problem) (*Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n, m := len(p.Tasks), p.NumProcs()
	quotas := taskQuotas(n, m)
	pb, err := procBias(p, md.NodeBias)
	if err != nil {
		return nil, err
	}
	biasOf := func(proc int) float64 {
		if pb == nil {
			return 1
		}
		return pb[proc]
	}

	// Matching values m_i^j come from the shared locality index (one
	// O(edges) inversion instead of m·n CoLocatedMB probes). Each process's
	// preference list is its sparse edge set sorted by descending co-located
	// size (ties by ascending task ID for determinism — the index hands the
	// edges task-ascending, so a stable sort on size alone preserves the tie
	// order). Only tasks with positive co-located data appear; tasks with
	// zero affinity everywhere are handled by the final repair, which is
	// equivalent to proposing with value zero.
	ix, err := NewLocalityIndexContext(ctx, p)
	if err != nil {
		return nil, err
	}
	defer ix.Release()
	prefs := make([][]LocalityEdge, m) // proc -> edges, best first
	parallelFor(m, func(proc int) {
		es := ix.ProcEdges(proc)
		if len(es) == 0 {
			return
		}
		own := append([]LocalityEdge(nil), es...)
		// Stable + generic (no reflection-based swaps): same ordering as
		// sort.SliceStable on descending MB, several times faster.
		slices.SortStableFunc(own, func(a, b LocalityEdge) int { return cmp.Compare(b.MB, a.MB) })
		prefs[proc] = own
	})

	owner := make([]int, n)
	for t := range owner {
		owner[t] = -1
	}
	counts := make([]int, m)
	cursor := make([]int, m) // next preference index to consider

	// Work queue of processes that are under quota and still have
	// unconsidered tasks. Round-robin order keeps the run deterministic; a
	// process re-enters the queue when a reassignment drops it under quota.
	queue := make([]int, 0, m)
	inQueue := make([]bool, m)
	push := func(proc int) {
		if !inQueue[proc] && counts[proc] < quotas[proc] && cursor[proc] < len(prefs[proc]) {
			queue = append(queue, proc)
			inQueue[proc] = true
		}
	}
	for proc := 0; proc < m; proc++ {
		push(proc)
	}
	proposals := 0
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		inQueue[k] = false
		if counts[k] >= quotas[k] {
			continue
		}
		// Propose to the best not-yet-considered task (line 7).
		for cursor[k] < len(prefs[k]) && counts[k] < quotas[k] {
			proposals++
			if proposals%proposalCtxStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			e := prefs[k][cursor[k]]
			x := e.Task
			cursor[k]++ // record that k considered x (line 16)
			cur := owner[x]
			if cur == -1 {
				owner[x] = k // line 9
				counts[k]++
				continue
			}
			if biasOf(cur)*ix.CoLocatedMB(cur, x) < biasOf(k)*e.MB { // line 11
				owner[x] = k // lines 12-13
				counts[k]++
				counts[cur]--
				push(cur) // the victim resumes proposing
			}
		}
		push(k)
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Tasks nobody claimed have no co-located process left with room: a
	// process under quota leaves the queue only once it has proposed to every
	// task it holds data for, and an owned task never becomes unowned. So
	// the shared repair pipeline places them, rack tier then random.
	return finishAssignment(p, ix, owner, nil, 0, rand.New(rand.NewSource(md.Seed))), nil
}

// parallelFor runs fn(i) for i in [0, n) over a bounded GOMAXPROCS worker
// pool. Iterations must be independent; small n runs inline. Its one caller
// is the preference sort above, the only fan-out in the planners that
// measured faster than its serial loop: one work item is a whole process's
// stable sort (hundreds of edges), and at GOMAXPROCS=2 it takes
// MultiData.Assign from 2.7 to 2.4 ms at 256 procs × 2,560 tasks and from
// 36 to 26 ms at × 25,600 (EXPERIMENTS.md §V-C2). The per-task index build
// and the O(n) size sums lost the same comparison and are serial.
func parallelFor(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
