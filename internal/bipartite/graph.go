// Package bipartite provides the graph machinery behind Opass's planners:
// the process↔file locality graph of §IV-A, a general max-flow solver with
// two algorithms (Ford-Fulkerson with BFS augmenting paths, i.e.
// Edmonds-Karp, as the paper uses; and Dinic's algorithm as a faster
// alternative used in the scalability ablation), and maximum bipartite
// matching built on top.
package bipartite

import "fmt"

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

// NumP reports the number of process vertices.
func (g *Graph) NumP() int { return g.numP }

// NumF reports the number of file vertices.
func (g *Graph) NumF() int { return g.numF }

// NumEdges reports the number of locality edges.
func (g *Graph) NumEdges() int { return g.edges }

// NewGraphFromSorted builds a graph in one shot from complete per-process
// adjacency lists: byP[p] must hold process p's edges in ascending file
// order with distinct files, positive weights, and P set to p. The graph
// takes ownership of byP without copying and derives the per-file adjacency
// by a counting-sort transpose over one backing array; visiting processes in
// ascending order lands each list process-ascending. Invalid input panics.
// This is the planners' locality-graph build.
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

// EdgesOfP lists the edges incident to process p in ascending file order.
// The returned slice is a read-only view owned by the graph: callers must
// not modify it.
func (g *Graph) EdgesOfP(p int) []Edge { return g.byP[p] }

// EdgesOfF lists the edges incident to file f in ascending process order.
// The returned slice is a read-only view owned by the graph: callers must
// not modify it.
func (g *Graph) EdgesOfF(f int) []Edge { return g.byF[f] }
