package core

import (
	"context"
	"math"

	"opass/internal/bipartite"
)

// MultiExact is the default planner for tasks with multiple data inputs: it
// maximises the co-located data Σ m_i^j x_ij under the paper's equal task
// counts (or their weighted form) exactly. That is a transportation
// problem; Algorithm 1 (MultiData) solves it only proposer-optimally and
// leaves a few percent of the attainable node-local MB unread. The solver
// has three stages, all on the pooled locality index:
//
//  1. Tight matching. Each task keeps only the edges to its best holders
//     (row maximum MB) and the phased matcher assigns them under the count
//     quotas. When every task with a holder is matched, the plan reaches the
//     upper bound Σ_t max_p m_t^p and is optimal; on replicated placements
//     at paper scale this is the whole solve.
//  2. Min-cost repair, only when stage 1 leaves such a task unmatched: it is
//     parked on its lowest-ranked best holder, and a primal-dual min-cost
//     flow (transport below) drains the processes pushed over quota.
//  3. The shared repair pipeline homes the tasks stage 2 sent to the
//     non-local hub and the tasks nobody holds.
type MultiExact struct {
	// Seed drives the random repair of tasks left without a local home.
	Seed int64
	// Weights optionally skews the task counts as SingleData's weights skew
	// its data shares: process i's quota is its weightedTaskQuotas count
	// instead of ⌊n/m⌋ or ⌈n/m⌉, so a zero-weight process gets no task. nil
	// means equal counts; see checkWeights for the rules.
	Weights []float64
}

// Name implements Assigner.
func (MultiExact) Name() string { return "opass-exact" }

// Assign implements Assigner.
func (me MultiExact) Assign(p *Problem) (*Assignment, error) {
	return me.AssignContext(context.Background(), p)
}

// AssignContext implements ContextAssigner: the index build, the matcher's
// phases and every min-cost round poll ctx and abort with its error.
func (me MultiExact) AssignContext(ctx context.Context, p *Problem) (*Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkWeights(p, me.Weights); err != nil {
		return nil, err
	}
	ix, err := NewLocalityIndexContext(ctx, p)
	if err != nil {
		return nil, err
	}
	defer ix.Release()
	quotas := weightedTaskQuotas(len(p.Tasks), p.NumProcs(), me.Weights)
	tight, holders := ix.tightRows()
	b := takeAnswer(len(p.Tasks))
	owner := b.owner
	matched, err := bipartite.MatchRows(ctx, tight, quotas, owner)
	if err == nil && matched < holders {
		for t, o := range owner {
			if row := tight.Row(t); o < 0 && len(row) > 0 {
				owner[t] = row[0].Proc
			}
		}
		err = drainOverQuota(ctx, p, ix, owner, quotas)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		answerPool.Put(b)
		return nil, err
	}
	return finishAssignment(p, ix, b, quotas, nil, 0, me.Seed), nil
}

// transportCtxStride is how many arc scans a min-cost round makes between
// context polls.
const transportCtxStride = 4096

// transport is stage 2 of MultiExact: a min-cost flow that starts from
// every task with a holder parked on a best holder — optimal, but with some
// processes over quota — and moves the excess out at the least loss of
// co-located data. Its nodes are the processes 0..m-1, the non-local hub m
// and the sink m+1; its arcs are read off where the tasks sit:
//
//   - task t on x moves to another holder y, at cost m_t^x − m_t^y;
//   - task t on x is evicted to the hub, at cost m_t^x;
//   - a hub task t is pulled into holder y, at cost −m_t^y;
//   - x → sink at cost 0 while x is under quota, and hub → sink, unbounded
//     (hub tasks take the slots left free, of which there are exactly
//     enough because the quotas sum to the task count).
//
// The task arcs are the residual network of the task-node formulation with
// each task node folded into its one incoming arc, so reduced costs on them
// stay non-negative for the process potentials alone. Every task starts on
// a best holder, so zero potentials are valid. Each round runs one
// multi-source Dijkstra from the over-quota processes, raises the
// potentials by the clamped distances, and pushes a blocking flow along
// zero-reduced-cost arcs between successive BFS levels, depth-first with a
// current-arc cursor per node as in bipartite.MatchRows. Augmenting only
// along shortest paths keeps the flow optimal, and each round moves at
// least one unit, so rounds repeat until no process is over quota.
//
// Costs are int64 units (costUnit), so admissibility is an exact integer
// test; ties go to the lower rank.
type transport struct {
	ctx   context.Context
	rows  *bipartite.Rows // the index's task rows
	unit  float64         // cost units per MB
	m     int             // processes; m is the hub and m+1 the sink
	quota []int
	load  []int // tasks on each process

	// Each node's tasks form an intrusive doubly linked list: head[v] and
	// next/prev over task ids, -1 terminated. own[t] is t's co-located data
	// where it sits, in cost units (0 on the hub).
	head, next, prev []int32
	own              []int64

	pi, dist []int64 // potentials and Dijkstra distances, per node
	done     []bool
	heap     []heapNode
	level    []int32 // BFS level of each node this round, -1 unreached or dead
	sources  []int32 // over-quota processes this round
	queue    []int32 // BFS queue
	curT     []int32 // current arc: task curT[v] of v's list, arc curE[v] of it
	curE     []int32
	pathV    []int32 // DFS stack: pathT[i] moves from pathV[i] to pathV[i+1]
	pathT    []int32
	pathU    []int64 // the moved task's co-located units at pathV[i+1]
	scans    int
}

type heapNode struct {
	d int64
	v int32
}

// costUnit is the exact planner's cost scale in units per MB: the finest
// power of two at which the problem's total size stays within maxCapUnits,
// so every distance and potential fits an int64 and sizes that are
// multiples of 1/unit MB (whole MB and the usual binary fractions) cost
// exactly. capacityScale's coarser unit would not do: it stays at 1 MB
// whenever every task reaches 1 MB, where a 0.4 MB and a 1 MB edge tie.
func costUnit(p *Problem) float64 {
	total := p.TotalMB()
	unit := 1.0
	for total*unit*2 <= float64(maxCapUnits) && unit < 1<<30 {
		unit *= 2
	}
	for total*unit > float64(maxCapUnits) {
		unit /= 2
	}
	return unit
}

// drainOverQuota runs stage 2 on owner, where every task with a holder sits
// on a best holder, and rewrites it in place: tasks sent to the hub come
// back -1 for the repair pipeline.
func drainOverQuota(ctx context.Context, p *Problem, ix *LocalityIndex, owner, quotas []int) error {
	rows, err := ix.taskRows(ctx)
	if err != nil {
		return err
	}
	n, m := len(owner), len(quotas)
	tr := &transport{
		ctx:   ctx,
		rows:  rows,
		unit:  costUnit(p),
		m:     m,
		quota: quotas,
		load:  make([]int, m),
		head:  make([]int32, m+1),
		next:  make([]int32, n),
		prev:  make([]int32, n),
		own:   make([]int64, n),
		pi:    make([]int64, m+2),
		dist:  make([]int64, m+2),
		done:  make([]bool, m+2),
		level: make([]int32, m+2),
		curT:  make([]int32, m+1),
		curE:  make([]int32, m+1),
	}
	for v := range tr.head {
		tr.head[v] = -1
	}
	for t := n - 1; t >= 0; t-- { // head insertion leaves every list task-ascending
		if x := owner[t]; x >= 0 {
			tr.load[x]++
			tr.own[t] = tr.units(rowMB(rows.Row(t), x))
			tr.link(int32(t), int32(x))
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		tr.sources = tr.sources[:0]
		for x := range tr.load {
			if tr.load[x] > tr.quota[x] {
				tr.sources = append(tr.sources, int32(x))
			}
		}
		if len(tr.sources) == 0 {
			break
		}
		if err := tr.shortestPaths(); err != nil {
			return err
		}
		if err := tr.layer(); err != nil {
			return err
		}
		copy(tr.curT, tr.head)
		clear(tr.curE)
		for _, s := range tr.sources {
			for tr.load[s] > tr.quota[s] && tr.level[s] == 0 {
				ok, err := tr.augment(s)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
			}
		}
	}
	for t := range owner {
		owner[t] = -1
	}
	for x := 0; x < m; x++ {
		for t := tr.head[x]; t >= 0; t = tr.next[t] {
			owner[t] = x
		}
	}
	return nil
}

// units converts co-located MB to cost units.
func (tr *transport) units(mb float64) int64 { return int64(math.Round(mb * tr.unit)) }

// link puts task t at the head of node v's list.
func (tr *transport) link(t, v int32) {
	tr.prev[t], tr.next[t] = -1, tr.head[v]
	if h := tr.head[v]; h >= 0 {
		tr.prev[h] = t
	}
	tr.head[v] = t
}

// unlink takes task t out of node v's list, moving v's cursor past it.
func (tr *transport) unlink(t, v int32) {
	if tr.curT[v] == t {
		tr.curT[v], tr.curE[v] = tr.next[t], 0
	}
	if p := tr.prev[t]; p >= 0 {
		tr.next[p] = tr.next[t]
	} else {
		tr.head[v] = tr.next[t]
	}
	if nx := tr.next[t]; nx >= 0 {
		tr.prev[nx] = tr.prev[t]
	}
}

// sinkable reports whether node v has an arc to the sink: the hub always,
// a process while it is under quota.
func (tr *transport) sinkable(v int32) bool {
	return int(v) == tr.m || tr.load[v] < tr.quota[v]
}

// arc returns arc k out of node v of a task that sits on v and whose index
// row is row: k below the row length is the move (or, from the hub, the
// pull) to the row's k-th holder, k equal to it the eviction to the hub,
// and u what the task is worth there. ok is false for the holder v itself
// and for an eviction out of the hub.
func (tr *transport) arc(v int32, k int, row []LocalityEdge) (to int32, u int64, ok bool) {
	if k < len(row) {
		e := row[k]
		return int32(e.Proc), tr.units(e.MB), int32(e.Proc) != v
	}
	return int32(tr.m), 0, int(v) != tr.m
}

// reduced is the reduced cost of moving a task worth own units on v to a
// node where it is worth u.
func (tr *transport) reduced(v, to int32, own, u int64) int64 {
	return own - u + tr.pi[v] - tr.pi[to]
}

// tick counts arc scans and polls ctx every transportCtxStride of them.
func (tr *transport) tick(arcs int) error {
	before := tr.scans / transportCtxStride
	tr.scans += arcs
	if tr.scans/transportCtxStride != before {
		return tr.ctx.Err()
	}
	return nil
}

// shortestPaths runs Dijkstra on reduced costs from the over-quota
// processes until the sink settles, then raises every potential by its
// distance clamped at the sink's. Clamping keeps every reduced cost
// non-negative and zeroes it along each shortest path. The sink is always
// reached: an over-quota process owns a task it can evict.
func (tr *transport) shortestPaths() error {
	sink := int32(tr.m + 1)
	for v := range tr.dist {
		tr.dist[v], tr.done[v] = math.MaxInt64, false
	}
	tr.heap = tr.heap[:0]
	for _, s := range tr.sources {
		tr.dist[s] = 0
		tr.push(heapNode{0, s})
	}
	relax := func(v int32, d int64) {
		if d < tr.dist[v] {
			tr.dist[v] = d
			tr.push(heapNode{d, v})
		}
	}
	for len(tr.heap) > 0 {
		h := tr.pop()
		u := h.v
		if tr.done[u] || h.d > tr.dist[u] {
			continue
		}
		tr.done[u] = true
		if u == sink {
			break
		}
		if tr.sinkable(u) {
			relax(sink, h.d+tr.pi[u]-tr.pi[sink])
		}
		for t := tr.head[u]; t >= 0; t = tr.next[t] {
			row := tr.rows.Row(int(t))
			for k := 0; k <= len(row); k++ {
				if to, uv, ok := tr.arc(u, k, row); ok {
					relax(to, h.d+tr.reduced(u, to, tr.own[t], uv))
				}
			}
			if err := tr.tick(len(row) + 1); err != nil {
				return err
			}
		}
	}
	D := tr.dist[sink]
	for v := range tr.pi {
		if tr.done[v] {
			tr.pi[v] += tr.dist[v]
		} else {
			tr.pi[v] += D
		}
	}
	return nil
}

// push and pop keep tr.heap a binary min-heap on distance, ties to the
// lower node.
func (tr *transport) push(h heapNode) {
	tr.heap = append(tr.heap, h)
	for i := len(tr.heap) - 1; i > 0; {
		parent := (i - 1) / 2
		if !heapBefore(tr.heap[i], tr.heap[parent]) {
			break
		}
		tr.heap[i], tr.heap[parent] = tr.heap[parent], tr.heap[i]
		i = parent
	}
}

func (tr *transport) pop() heapNode {
	h := tr.heap
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && heapBefore(h[c+1], h[c]) {
			c++
		}
		if !heapBefore(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	tr.heap = h
	return top
}

func heapBefore(a, b heapNode) bool { return a.d < b.d || a.d == b.d && a.v < b.v }

// layer assigns BFS levels over the zero-reduced-cost arcs from the
// over-quota processes, up to the level where the sink is first reached.
func (tr *transport) layer() error {
	sink := int32(tr.m + 1)
	for v := range tr.level {
		tr.level[v] = -1
	}
	q := append(tr.queue[:0], tr.sources...)
	for _, s := range q {
		tr.level[s] = 0
	}
	for i := 0; i < len(q); i++ {
		u := q[i]
		if tr.sinkable(u) && tr.pi[u] == tr.pi[sink] {
			// BFS order: the nodes still queued are at least as deep as u,
			// so their arcs lead nowhere the sink's level can use.
			tr.level[sink] = tr.level[u] + 1
			break
		}
		for t := tr.head[u]; t >= 0; t = tr.next[t] {
			row := tr.rows.Row(int(t))
			for k := 0; k <= len(row); k++ {
				to, uv, ok := tr.arc(u, k, row)
				if ok && tr.level[to] < 0 && tr.reduced(u, to, tr.own[t], uv) == 0 {
					tr.level[to] = tr.level[u] + 1
					q = append(q, to)
				}
			}
			if err := tr.tick(len(row) + 1); err != nil {
				return err
			}
		}
	}
	tr.queue = q
	return nil
}

// augment searches the level graph depth-first for a path from source s to
// the sink and, if it finds one, moves every task on it one node along. A
// node with no way forward is marked dead for the rest of the round.
func (tr *transport) augment(s int32) (bool, error) {
	sink := int32(tr.m + 1)
	tr.pathV, tr.pathT, tr.pathU = append(tr.pathV[:0], s), tr.pathT[:0], tr.pathU[:0]
	for len(tr.pathV) > 0 {
		depth := len(tr.pathV) - 1
		u := tr.pathV[depth]
		if tr.level[u]+1 == tr.level[sink] && tr.sinkable(u) && tr.pi[u] == tr.pi[sink] {
			tr.apply()
			return true, nil
		}
		descended := false
		for !descended && tr.curT[u] >= 0 {
			t := tr.curT[u]
			row := tr.rows.Row(int(t))
			for ; int(tr.curE[u]) <= len(row); tr.curE[u]++ {
				to, uv, ok := tr.arc(u, int(tr.curE[u]), row)
				if ok && tr.level[to] == tr.level[u]+1 && tr.level[to] < tr.level[sink] && tr.reduced(u, to, tr.own[t], uv) == 0 {
					tr.pathV, tr.pathT, tr.pathU = append(tr.pathV, to), append(tr.pathT, t), append(tr.pathU, uv)
					descended = true
					break
				}
			}
			if err := tr.tick(len(row) + 1); err != nil {
				return false, err
			}
			if !descended {
				tr.curT[u], tr.curE[u] = tr.next[t], 0
			}
		}
		if descended {
			continue
		}
		tr.level[u] = -1
		tr.pathV = tr.pathV[:depth]
		if depth > 0 {
			tr.pathT, tr.pathU = tr.pathT[:depth-1], tr.pathU[:depth-1]
			tr.curE[tr.pathV[depth-1]]++
		}
	}
	return false, nil
}

// apply moves each task of the path on the stack to the next node and
// settles the unit of excess: the source gives up a task, the last process
// on the path (unless the path ends at the hub) takes one.
func (tr *transport) apply() {
	for i, t := range tr.pathT {
		from, to := tr.pathV[i], tr.pathV[i+1]
		tr.unlink(t, from)
		tr.link(t, to)
		tr.own[t] = tr.pathU[i]
	}
	tr.load[tr.pathV[0]]--
	if last := tr.pathV[len(tr.pathV)-1]; int(last) != tr.m {
		tr.load[last]++
	}
}
