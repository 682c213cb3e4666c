package bipartite

import (
	"fmt"
	"math"
)

// FlowNetwork is a directed flow network with integer capacities stored in a
// forward-star adjacency layout with interleaved residual arcs: arc i and
// arc i^1 are a forward/backward pair, the standard compact representation
// for augmenting-path algorithms.
type FlowNetwork struct {
	n    int
	head []int // head[v] = first arc index of v, -1 when none
	next []int
	to   []int
	cap  []int64
	// scratch for searches
	level []int
	iter  []int
	queue []int
	prevA []int

	// stop, when non-nil, is consulted between augmenting rounds
	// (Edmonds-Karp) and phases (Dinic); a non-nil return aborts the solve
	// early with the flow found so far, recorded in stopErr.
	stop    func() error
	stopErr error
}

// NewFlowNetwork creates a network with n vertices and no arcs.
func NewFlowNetwork(n int) *FlowNetwork {
	if n <= 0 {
		panic(fmt.Sprintf("bipartite: network size %d must be positive", n))
	}
	head := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	return &FlowNetwork{
		n:     n,
		head:  head,
		level: make([]int, n),
		iter:  make([]int, n),
		prevA: make([]int, n),
	}
}

// AddArc adds a directed arc u->v with the given capacity and returns its
// arc ID, usable with Flow after a max-flow run.
func (fn *FlowNetwork) AddArc(u, v int, capacity int64) int {
	if u < 0 || u >= fn.n || v < 0 || v >= fn.n {
		panic(fmt.Sprintf("bipartite: arc (%d,%d) out of range [0,%d)", u, v, fn.n))
	}
	if capacity < 0 {
		panic(fmt.Sprintf("bipartite: arc (%d,%d) capacity %d must be non-negative", u, v, capacity))
	}
	id := len(fn.to)
	// forward arc
	fn.to = append(fn.to, v)
	fn.cap = append(fn.cap, capacity)
	fn.next = append(fn.next, fn.head[u])
	fn.head[u] = id
	// residual arc
	fn.to = append(fn.to, u)
	fn.cap = append(fn.cap, 0)
	fn.next = append(fn.next, fn.head[v])
	fn.head[v] = id + 1
	return id
}

// Flow reports the flow pushed through forward arc id after a max-flow run:
// the capacity accumulated on its residual twin.
func (fn *FlowNetwork) Flow(id int) int64 {
	if id < 0 || id >= len(fn.to) || id%2 != 0 {
		panic(fmt.Sprintf("bipartite: %d is not a forward arc ID", id))
	}
	return fn.cap[id^1]
}

// SetStop installs a cancellation hook (typically a context's Err method)
// consulted between augmenting rounds and phases. A max-flow run aborted by
// the hook returns the partial flow found so far; StopErr reports why. A nil
// hook never stops. Installing a hook clears any previous stop error.
func (fn *FlowNetwork) SetStop(stop func() error) {
	fn.stop = stop
	fn.stopErr = nil
}

// StopErr reports the error that aborted the most recent max-flow run, or
// nil when it ran to optimality.
func (fn *FlowNetwork) StopErr() error { return fn.stopErr }

// aborted polls the stop hook, latching its first non-nil error.
func (fn *FlowNetwork) aborted() bool {
	if fn.stopErr != nil {
		return true
	}
	if fn.stop == nil {
		return false
	}
	fn.stopErr = fn.stop()
	return fn.stopErr != nil
}

// MaxFlowEK computes the maximum s-t flow with the Edmonds-Karp algorithm —
// Ford-Fulkerson with shortest (BFS) augmenting paths, the method the paper
// names in §IV-B. Augmenting paths implement exactly the paper's
// "cancellation policy": pushing flow along a residual arc revokes an
// earlier task assignment in favor of a globally better one.
func (fn *FlowNetwork) MaxFlowEK(s, t int) int64 {
	fn.checkST(s, t)
	var total int64
	for !fn.aborted() {
		// BFS for a shortest augmenting path, recording the inbound arc.
		for i := range fn.prevA {
			fn.prevA[i] = -1
		}
		fn.queue = fn.queue[:0]
		fn.queue = append(fn.queue, s)
		fn.prevA[s] = -2
		found := false
	bfs:
		for qi := 0; qi < len(fn.queue); qi++ {
			u := fn.queue[qi]
			for a := fn.head[u]; a != -1; a = fn.next[a] {
				v := fn.to[a]
				if fn.cap[a] <= 0 || fn.prevA[v] != -1 {
					continue
				}
				fn.prevA[v] = a
				if v == t {
					found = true
					break bfs
				}
				fn.queue = append(fn.queue, v)
			}
		}
		if !found {
			return total
		}
		// Find the bottleneck along the path.
		var bottleneck int64 = math.MaxInt64
		for v := t; v != s; {
			a := fn.prevA[v]
			if fn.cap[a] < bottleneck {
				bottleneck = fn.cap[a]
			}
			v = fn.to[a^1]
		}
		// Augment.
		for v := t; v != s; {
			a := fn.prevA[v]
			fn.cap[a] -= bottleneck
			fn.cap[a^1] += bottleneck
			v = fn.to[a^1]
		}
		total += bottleneck
	}
	return total
}

// MaxFlowDinic computes the maximum s-t flow with Dinic's algorithm
// (level graph + blocking flows). It produces the same flow value as
// MaxFlowEK in far fewer phases on large, dense locality graphs; the
// scalability ablation (BenchmarkMaxFlow*) quantifies the difference.
func (fn *FlowNetwork) MaxFlowDinic(s, t int) int64 {
	fn.checkST(s, t)
	var total int64
	for !fn.aborted() && fn.bfsLevels(s, t) {
		copy(fn.iter, fn.head)
		for {
			pushed := fn.dfsBlocking(s, t, math.MaxInt64)
			if pushed == 0 {
				break
			}
			total += pushed
		}
	}
	return total
}

func (fn *FlowNetwork) bfsLevels(s, t int) bool {
	for i := range fn.level {
		fn.level[i] = -1
	}
	fn.queue = fn.queue[:0]
	fn.queue = append(fn.queue, s)
	fn.level[s] = 0
	for qi := 0; qi < len(fn.queue); qi++ {
		u := fn.queue[qi]
		for a := fn.head[u]; a != -1; a = fn.next[a] {
			v := fn.to[a]
			if fn.cap[a] > 0 && fn.level[v] < 0 {
				fn.level[v] = fn.level[u] + 1
				fn.queue = append(fn.queue, v)
			}
		}
	}
	return fn.level[t] >= 0
}

func (fn *FlowNetwork) dfsBlocking(u, t int, limit int64) int64 {
	if u == t {
		return limit
	}
	for ; fn.iter[u] != -1; fn.iter[u] = fn.next[fn.iter[u]] {
		a := fn.iter[u]
		v := fn.to[a]
		if fn.cap[a] <= 0 || fn.level[v] != fn.level[u]+1 {
			continue
		}
		d := limit
		if fn.cap[a] < d {
			d = fn.cap[a]
		}
		pushed := fn.dfsBlocking(v, t, d)
		if pushed > 0 {
			fn.cap[a] -= pushed
			fn.cap[a^1] += pushed
			return pushed
		}
	}
	return 0
}

func (fn *FlowNetwork) checkST(s, t int) {
	if s < 0 || s >= fn.n || t < 0 || t >= fn.n || s == t {
		panic(fmt.Sprintf("bipartite: invalid source/sink %d/%d for network of %d vertices", s, t, fn.n))
	}
}
