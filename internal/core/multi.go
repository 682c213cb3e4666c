package core

import "context"

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

	// Matching values m_i^j come from the shared locality index (one
	// O(edges) inversion instead of m·n CoLocatedMB probes). Each process's
	// preference list is its index row, consumed in place: heapified under
	// preferBefore and popped one proposal at a time, so a row is ordered
	// only as far as the proposals read it. The index is this plan's alone
	// and nothing after the loop reads its process rows. Only tasks with
	// positive co-located data appear; tasks with zero affinity everywhere
	// are handled by the final repair, which is equivalent to proposing with
	// value zero.
	ix, err := NewLocalityIndexContext(ctx, p)
	if err != nil {
		return nil, err
	}
	defer ix.Release()
	left := make([]int, m) // unconsidered preferences: the heap prefix of the row
	for proc := range left {
		row := ix.ProcEdges(proc)
		heapifyPrefs(row)
		left[proc] = len(row)
	}

	b := takeAnswer(n)
	owner := b.owner
	for t := range owner {
		owner[t] = -1
	}
	counts := make([]int, m)

	// Work queue of processes that are under quota and still have
	// unconsidered tasks: a ring of m slots, since inQueue admits each
	// process at most once. Round-robin order keeps the run deterministic; a
	// process re-enters the queue when a reassignment drops it under quota.
	queue, head, queued := make([]int, m), 0, 0
	inQueue := make([]bool, m)
	push := func(proc int) {
		if !inQueue[proc] && counts[proc] < quotas[proc] && left[proc] > 0 {
			queue[(head+queued)%m] = proc
			queued++
			inQueue[proc] = true
		}
	}
	for proc := 0; proc < m; proc++ {
		push(proc)
	}
	proposals := 0
	for queued > 0 {
		k := queue[head]
		head, queued = (head+1)%m, queued-1
		inQueue[k] = false
		if counts[k] >= quotas[k] {
			continue
		}
		// Propose to the best not-yet-considered task (line 7).
		for left[k] > 0 && counts[k] < quotas[k] {
			proposals++
			if proposals%proposalCtxStride == 0 {
				if err := ctx.Err(); err != nil {
					answerPool.Put(b)
					return nil, err
				}
			}
			e := popPref(ix.ProcEdges(k)[:left[k]])
			x := e.Task
			left[k]-- // record that k considered x (line 16)
			cur := owner[x]
			if cur == -1 {
				owner[x] = k // line 9
				counts[k]++
				continue
			}
			if ix.CoLocatedMB(cur, x) < e.MB { // line 11
				owner[x] = k // lines 12-13
				counts[k]++
				counts[cur]--
				push(cur) // the victim resumes proposing
			}
		}
		push(k)
	}

	if err := ctx.Err(); err != nil {
		answerPool.Put(b)
		return nil, err
	}
	// Tasks nobody claimed have no co-located process left with room: a
	// process under quota leaves the queue only once it has proposed to every
	// task it holds data for, and an owned task never becomes unowned. So
	// the shared repair pipeline places them, rack tier then random.
	return finishAssignment(p, ix, b, quotas, nil, 0, md.Seed), nil
}

// preferBefore is a process's preference order: more co-located MB first,
// ties to the lower task ID. Index rows arrive Task-ascending, so this is
// exactly the order a stable sort on MB alone would give them. Sizes are
// positive (Validate rejects NaN), so the order is total.
func preferBefore(a, b LocalityEdge) bool {
	return a.MB > b.MB || a.MB == b.MB && a.Task < b.Task
}

// heapifyPrefs makes row a binary heap with its best preference at the root,
// in O(len(row)).
func heapifyPrefs(row []LocalityEdge) {
	for i := len(row)/2 - 1; i >= 0; i-- {
		siftPref(row, i)
	}
}

// popPref removes the best preference of the non-empty heap h and returns
// it; it lands in h's last slot, past the shrunken heap.
func popPref(h []LocalityEdge) LocalityEdge {
	last := len(h) - 1
	h[0], h[last] = h[last], h[0]
	siftPref(h[:last], 0)
	return h[last]
}

// siftPref moves h[i] down until neither child precedes it.
func siftPref(h []LocalityEdge, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && preferBefore(h[c+1], h[c]) {
			c++
		}
		if !preferBefore(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
