// Package bipartite provides the graph machinery behind Opass's planners:
// the process↔file locality graph of §IV-A, a general max-flow solver with
// two algorithms (Ford-Fulkerson with BFS augmenting paths, i.e.
// Edmonds-Karp, as the paper uses; and Dinic's algorithm as a faster
// alternative used in the scalability ablation), and maximum bipartite
// matching built on top.
package bipartite

import (
	"fmt"
	"sort"
)

// Edge connects a process to a file in the locality graph. Weight is the
// number of megabytes of the file's data that the process can read locally
// (for whole chunks this is simply the chunk size).
type Edge struct {
	P      int
	F      int
	Weight int64
}

// Graph is the bipartite locality graph G = (P, F, E) of §IV-A: processes on
// one side, chunk files on the other, an edge wherever a file has a replica
// co-located with a process.
type Graph struct {
	numP, numF int
	byP        [][]Edge // edges grouped by process, file-ascending
	byF        [][]Edge // edges grouped by file, process-ascending
	edges      int
}

// NewGraph creates an empty locality graph with numP processes and numF
// files.
func NewGraph(numP, numF int) *Graph {
	if numP < 0 || numF < 0 {
		panic(fmt.Sprintf("bipartite: invalid graph dimensions %dx%d", numP, numF))
	}
	return &Graph{
		numP: numP,
		numF: numF,
		byP:  make([][]Edge, numP),
		byF:  make([][]Edge, numF),
	}
}

// NumP reports the number of process vertices.
func (g *Graph) NumP() int { return g.numP }

// NumF reports the number of file vertices.
func (g *Graph) NumF() int { return g.numF }

// NumEdges reports the number of locality edges.
func (g *Graph) NumEdges() int { return g.edges }

// AddEdge records that process p can read weight MB of file f locally.
// Adding a parallel edge accumulates weight (a process may be co-located
// with several inputs of a multi-input file/task). The adjacency lists are
// kept sorted on insert, so builders that add edges in ascending order —
// as the planners' locality-graph construction does — append in O(1) and
// never trigger a shift.
func (g *Graph) AddEdge(p, f int, weight int64) {
	if p < 0 || p >= g.numP {
		panic(fmt.Sprintf("bipartite: process %d out of range [0,%d)", p, g.numP))
	}
	if f < 0 || f >= g.numF {
		panic(fmt.Sprintf("bipartite: file %d out of range [0,%d)", f, g.numF))
	}
	if weight <= 0 {
		panic(fmt.Sprintf("bipartite: edge (%d,%d) weight %d must be positive", p, f, weight))
	}
	i := searchF(g.byP[p], f)
	if i < len(g.byP[p]) && g.byP[p][i].F == f {
		g.byP[p][i].Weight += weight
		j := searchP(g.byF[f], p)
		if j >= len(g.byF[f]) || g.byF[f][j].P != p {
			panic("bipartite: index desync")
		}
		g.byF[f][j].Weight += weight
		return
	}
	e := Edge{P: p, F: f, Weight: weight}
	g.byP[p] = insertEdge(g.byP[p], i, e)
	g.byF[f] = insertEdge(g.byF[f], searchP(g.byF[f], p), e)
	g.edges++
}

// NewGraphFromSorted builds a graph in one shot from complete per-process
// adjacency lists: byP[p] must hold process p's edges in ascending file
// order with distinct files, positive weights, and P set to p — exactly
// what an in-order AddEdge loop would have produced, minus the per-edge
// binary searches. The graph takes ownership of byP without copying and
// derives the per-file adjacency by a counting-sort transpose over one
// backing array; visiting processes in ascending order lands each list
// process-ascending, matching the incremental builder's invariant.
// Invalid input panics, mirroring AddEdge. This is the bulk path behind
// the planners' locality-graph build.
func NewGraphFromSorted(numP, numF int, byP [][]Edge) *Graph {
	if numP < 0 || numF < 0 {
		panic(fmt.Sprintf("bipartite: invalid graph dimensions %dx%d", numP, numF))
	}
	if len(byP) != numP {
		panic(fmt.Sprintf("bipartite: %d adjacency lists for %d processes", len(byP), numP))
	}
	g := &Graph{numP: numP, numF: numF, byP: byP, byF: make([][]Edge, numF)}
	degF := make([]int, numF)
	for p, es := range byP {
		g.edges += len(es)
		for i, e := range es {
			if e.P != p {
				panic(fmt.Sprintf("bipartite: edge %+v in adjacency of process %d", e, p))
			}
			if e.F < 0 || e.F >= numF {
				panic(fmt.Sprintf("bipartite: file %d out of range [0,%d)", e.F, numF))
			}
			if e.Weight <= 0 {
				panic(fmt.Sprintf("bipartite: edge (%d,%d) weight %d must be positive", e.P, e.F, e.Weight))
			}
			if i > 0 && es[i-1].F >= e.F {
				panic(fmt.Sprintf("bipartite: adjacency of process %d not file-ascending at %d", p, i))
			}
			degF[e.F]++
		}
	}
	backing := make([]Edge, g.edges)
	pos := make([]int, numF)
	off := 0
	for f, d := range degF {
		pos[f] = off
		g.byF[f] = backing[off : off+d : off+d]
		off += d
	}
	for _, es := range byP {
		for _, e := range es {
			backing[pos[e.F]] = e
			pos[e.F]++
		}
	}
	return g
}

// searchF returns the position of the first edge with .F >= f.
func searchF(es []Edge, f int) int {
	return sort.Search(len(es), func(i int) bool { return es[i].F >= f })
}

// searchP returns the position of the first edge with .P >= p.
func searchP(es []Edge, p int) int {
	return sort.Search(len(es), func(i int) bool { return es[i].P >= p })
}

// insertEdge places e at position i, shifting the tail (a no-op append for
// in-order builders).
func insertEdge(es []Edge, i int, e Edge) []Edge {
	es = append(es, Edge{})
	copy(es[i+1:], es[i:])
	es[i] = e
	return es
}

// EdgesOfP lists the edges incident to process p in ascending file order.
// The returned slice is a read-only view owned by the graph: callers must
// not modify it, and it is invalidated by the next AddEdge touching p.
func (g *Graph) EdgesOfP(p int) []Edge { return g.byP[p] }

// EdgesOfF lists the edges incident to file f in ascending process order.
// The returned slice is a read-only view owned by the graph: callers must
// not modify it, and it is invalidated by the next AddEdge touching f.
func (g *Graph) EdgesOfF(f int) []Edge { return g.byF[f] }

// Weight returns the locality weight between p and f, zero when no edge
// exists. It binary-searches the sorted adjacency.
func (g *Graph) Weight(p, f int) int64 {
	es := g.byP[p]
	i := searchF(es, f)
	if i < len(es) && es[i].F == f {
		return es[i].Weight
	}
	return 0
}

// Degrees returns per-process and per-file edge counts — a quick skew probe
// used by diagnostics.
func (g *Graph) Degrees() (procDeg, fileDeg []int) {
	procDeg = make([]int, g.numP)
	fileDeg = make([]int, g.numF)
	for p := range g.byP {
		procDeg[p] = len(g.byP[p])
	}
	for f := range g.byF {
		fileDeg[f] = len(g.byF[f])
	}
	return procDeg, fileDeg
}
