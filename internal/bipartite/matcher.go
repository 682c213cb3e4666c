package bipartite

import (
	"context"
	"fmt"
	"math"
)

// This file implements the direct solver for the equal-size case of §IV-B.
// When every task has the same size — the common case in the paper's
// evaluation, where tasks are whole 64 MB chunks — the flow problem reduces
// to maximum bipartite matching in which process p may own up to quota[p]
// files, and the paper only needs *a* maximum matching. The matcher is
// Hopcroft-Karp generalised to process quotas: it augments along a maximal
// set of shortest augmenting paths per phase instead of one path per BFS,
// so it never builds the flow network and does O(E) work per phase over a
// handful of phases where Edmonds-Karp pays one BFS per task. It reads file-
// side Rows, so the planner hands it the locality index's task rows as is.

// MatchAugmenting runs MatchRows, uncancellable, over g's edges; bench/'s
// tracer times a Graph build and the match as two spans. The rows come from
// a counting sort by file that visits processes in ascending order, so each
// lands process-ascending; off[f+1] is file f's write cursor.
func MatchAugmenting(g *Graph, quota []int) (owner []int, size int) {
	off := make([]int, g.numF+2)
	for _, es := range g.byP {
		for _, e := range es {
			off[e.F+2]++
		}
	}
	for f := 2; f < len(off); f++ {
		off[f] += off[f-1]
	}
	rows := Rows{Edges: make([]LocalityEdge, g.edges), Off: off[:g.numF+1]}
	for _, es := range g.byP {
		for _, e := range es {
			rows.Edges[off[e.F+1]] = LocalityEdge{Proc: e.P, Task: e.F, MB: float64(e.Weight)}
			off[e.F+1]++
		}
	}
	owner, size, _ = MatchRows(context.Background(), &rows, quota)
	return owner, size
}

// MatchRows computes a maximum matching of files to processes in which
// process p owns at most quota[p] files. Row f of rows lists the processes
// co-located with file f, distinct and ascending; only Proc is read. It
// returns owner[f] = process or -1 and the matching size, which always
// equals the max-flow formulation's (FuzzMatchAugmenting); only the specific
// assignment may differ. ctx is polled once per O(E) phase, and its error
// is returned instead of a partial matching.
//
// An augmenting path alternates free file → full process → one of its
// files → … → process with spare quota. Each phase layers the processes by
// BFS distance from the free files, stopping at the first layer that holds a
// process with spare quota, then runs one depth-first search per free file
// along strictly increasing layers. Both sides keep a current-arc cursor
// that only moves forward within a phase (a file's into its row, a
// process's into the files it owns), so a dead end is never re-entered and
// the phase touches every edge at most once.
//
// Quotas must be non-negative. A process can never own more files than it
// has edges, so its slots are carved for min(quota, degree): quotas far
// above the file count cost nothing.
func MatchRows(ctx context.Context, rows *Rows, quota []int) (owner []int, size int, err error) {
	numP, numF := len(quota), len(rows.Off)-1
	if numF > math.MaxInt32 {
		panic(fmt.Sprintf("bipartite: %d files exceed the matcher's int32 file ids", numF))
	}
	// Process p's owned files live in slots[off[p] : off[p]+cnt[p]], carved
	// from one backing array; a displaced file's slot is overwritten in
	// place by the file that displaced it. off[p+1] first counts p's degree.
	off := make([]int, numP+1)
	for _, e := range rows.Edges[rows.Off[0]:rows.Off[numF]] {
		off[e.Proc+1]++
	}
	for p, q := range quota {
		if q < 0 {
			panic(fmt.Sprintf("bipartite: quota[%d] = %d must be non-negative", p, q))
		}
		off[p+1] = off[p] + min(q, off[p+1])
	}
	m := matcher{
		rows:  rows,
		owner: make([]int, numF),
		off:   off,
		slots: make([]int32, off[numP]),
		cnt:   make([]int32, numP),
		level: make([]int32, numP),
		itP:   make([]int32, numP),
		itF:   make([]int32, numF),
		free:  make([]int32, numF),
	}
	for f := range m.owner {
		m.owner[f] = -1
		m.free[f] = int32(f)
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		if !m.layer() {
			return m.owner, size, nil
		}
		clear(m.itP)
		clear(m.itF)
		unmatched := m.free[:0]
		for _, f := range m.free {
			if m.augment(f) {
				size++
			} else {
				unmatched = append(unmatched, f)
			}
		}
		m.free = unmatched
	}
}

// matcher is the working state of one MatchRows call.
type matcher struct {
	rows  *Rows
	owner []int   // owner[f] = process or -1
	off   []int   // slot range of process p is slots[off[p]:off[p+1]]
	slots []int32 // files owned, cnt[p] of them from off[p]
	cnt   []int32
	free  []int32 // files still unmatched, ascending

	level []int32 // BFS layer of each process this phase, -1 unreached
	last  int32   // the layer that holds a process with spare quota
	itP   []int32 // current-arc cursor into a process's slots
	itF   []int32 // current-arc cursor into row f

	frontier, next []int32 // BFS queues
	pathF, pathP   []int32 // DFS stack: pathF[i+1] is owned by pathP[i]
}

func (m *matcher) spare(p int32) bool { return int(m.cnt[p]) < m.off[p+1]-m.off[p] }

// layer assigns BFS layers to the processes reachable from the free files
// and reports whether some process with spare quota was reached, i.e.
// whether an augmenting path exists. Processes without slots (zero quota)
// are never entered.
func (m *matcher) layer() bool {
	for p := range m.level {
		m.level[p] = -1
	}
	m.frontier = m.frontier[:0]
	reach := func(f int32, l int32, into []int32) []int32 {
		for _, e := range m.rows.Row(int(f)) {
			if m.level[e.Proc] < 0 && m.off[e.Proc+1] > m.off[e.Proc] {
				m.level[e.Proc] = l
				into = append(into, int32(e.Proc))
			}
		}
		return into
	}
	for _, f := range m.free {
		m.frontier = reach(f, 0, m.frontier)
	}
	for m.last = 0; len(m.frontier) > 0; m.last++ {
		for _, p := range m.frontier {
			if m.spare(p) {
				return true
			}
		}
		m.next = m.next[:0]
		for _, p := range m.frontier {
			for _, f := range m.slots[m.off[p] : m.off[p]+int(m.cnt[p])] {
				m.next = reach(f, m.last+1, m.next)
			}
		}
		m.frontier, m.next = m.next, m.frontier
	}
	return false
}

// augment searches the layered graph depth-first for an augmenting path
// from free file f0 and, if it finds one, shifts every file on it one
// process along. The stack is explicit: paths are as long as the layering
// is deep, which recursion would pay in goroutine stack.
func (m *matcher) augment(f0 int32) bool {
	m.pathF = append(m.pathF[:0], f0)
	m.pathP = m.pathP[:0]
	for len(m.pathF) > 0 {
		depth := len(m.pathF) - 1
		f := m.pathF[depth]
		es := m.rows.Row(int(f))
		descended := false
		for int(m.itF[f]) < len(es) {
			p := int32(es[m.itF[f]].Proc)
			if m.level[p] != int32(depth) {
				m.itF[f]++
				continue
			}
			if m.spare(p) {
				m.shift(p)
				return true
			}
			// p is full: displace the file under its cursor, unless p is on
			// the last layer (nothing beyond it was layered) or has no file
			// left to try.
			if int32(depth) == m.last || m.itP[p] == m.cnt[p] {
				m.itF[f]++
				continue
			}
			m.pathP = append(m.pathP, p)
			m.pathF = append(m.pathF, m.slots[m.off[p]+int(m.itP[p])])
			descended = true
			break
		}
		if descended {
			continue
		}
		// f is a dead end for this phase: back up and move its owner's
		// cursor past it.
		m.pathF = m.pathF[:depth]
		if depth > 0 {
			m.itP[m.pathP[depth-1]]++
			m.pathP = m.pathP[:depth-1]
		}
	}
	return false
}

// shift applies the augmenting path held on the stack, ending at process
// end with spare quota: the last file takes a fresh slot of end, and every
// earlier file overwrites the slot of the file it displaced. Each interior
// process's cursor moves past the rewritten slot — the file now in it sits
// one layer too low to extend a path of this phase.
func (m *matcher) shift(end int32) {
	d := len(m.pathF) - 1
	m.slots[m.off[end]+int(m.cnt[end])] = m.pathF[d]
	m.cnt[end]++
	m.owner[m.pathF[d]] = int(end)
	for i := d - 1; i >= 0; i-- {
		p := m.pathP[i]
		m.slots[m.off[p]+int(m.itP[p])] = m.pathF[i]
		m.itP[p]++
		m.owner[m.pathF[i]] = int(p)
	}
}
