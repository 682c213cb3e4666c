package bipartite

import (
	"fmt"
	"sort"
)

// NewGraph creates an empty locality graph with numP processes and numF
// files, to be filled edge by edge with AddEdge. It is the incremental
// reference builder that NewGraphFromSorted is checked against.
func NewGraph(numP, numF int) *Graph {
	if numP < 0 || numF < 0 {
		panic(fmt.Sprintf("bipartite: invalid graph dimensions %dx%d", numP, numF))
	}
	return &Graph{numP: numP, numF: numF, byP: make([][]Edge, numP)}
}

// AddEdge records that process p can read weight MB of file f locally.
// Adding a parallel edge accumulates weight (a process may be co-located
// with several inputs of a multi-input file/task). Each process's list is
// kept file-sorted on insert, so adding edges in ascending order appends in
// O(1) and never shifts.
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
		return
	}
	g.byP[p] = insertEdge(g.byP[p], i, Edge{P: p, F: f, Weight: weight})
	g.edges++
}

// NumP reports the number of process vertices.
func (g *Graph) NumP() int { return g.numP }

// NumF reports the number of file vertices.
func (g *Graph) NumF() int { return g.numF }

// EdgesOfP lists the edges incident to process p in ascending file order.
// The returned slice is a read-only view owned by the graph: callers must
// not modify it.
func (g *Graph) EdgesOfP(p int) []Edge { return g.byP[p] }

// EdgesOfF lists the edges incident to file f in ascending process order,
// gathered from every process's list.
func (g *Graph) EdgesOfF(f int) []Edge {
	var out []Edge
	for _, es := range g.byP {
		if i := searchF(es, f); i < len(es) && es[i].F == f {
			out = append(out, es[i])
		}
	}
	return out
}

// searchF returns the position of the first edge with .F >= f.
func searchF(es []Edge, f int) int {
	return sort.Search(len(es), func(i int) bool { return es[i].F >= f })
}

// insertEdge places e at position i, shifting the tail (a no-op append for
// in-order builders).
func insertEdge(es []Edge, i int, e Edge) []Edge {
	es = append(es, Edge{})
	copy(es[i+1:], es[i:])
	es[i] = e
	return es
}

// rowsOf lists g's edges file-side, the matcher's input, file by file
// through EdgesOfF — independently of MatchAugmenting's transpose.
func rowsOf(g *Graph) *Rows {
	rows := &Rows{Off: make([]int, 1, g.numF+1)}
	for f := 0; f < g.numF; f++ {
		for _, e := range g.EdgesOfF(f) {
			rows.Edges = append(rows.Edges, LocalityEdge{Proc: e.P, Task: f, MB: float64(e.Weight)})
		}
		rows.Off = append(rows.Off, len(rows.Edges))
	}
	return rows
}

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

// MaxMatchingSize computes the size of a maximum cardinality matching in g
// treating every edge as admissible (weights ignored), via unit-capacity
// max flow: the oracle FuzzMatchAugmenting checks the matcher's size
// against.
func MaxMatchingSize(g *Graph, algo Algorithm) int {
	numP, numF := g.NumP(), g.NumF()
	if numP == 0 || numF == 0 {
		return 0
	}
	s := 0
	procBase := 1
	fileBase := 1 + numP
	t := 1 + numP + numF
	fn := NewFlowNetwork(t + 1)
	for p := 0; p < numP; p++ {
		fn.AddArc(s, procBase+p, 1)
	}
	for p := 0; p < numP; p++ {
		for _, e := range g.EdgesOfP(p) {
			fn.AddArc(procBase+p, fileBase+e.F, 1)
		}
	}
	for f := 0; f < numF; f++ {
		fn.AddArc(fileBase+f, t, 1)
	}
	if algo == Dinic {
		return int(fn.MaxFlowDinic(s, t))
	}
	return int(fn.MaxFlowEK(s, t))
}
