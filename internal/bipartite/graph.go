// Package bipartite holds the solvers of Opass's single-data planner (§IV-B)
// over the §IV-A locality relation, both reading the locality index's rows
// in place: the phased matcher (MatchRows) on file-side Rows, and max flow
// over the Figure 5 network built from process-side Rows, by Dinic (the
// request path's) or Edmonds-Karp (the paper's, for the §V-C2 ablation and
// the tests' oracle). Graph is the process-list form bench/'s tracer
// builds; MatchAugmenting and AssignMaxLocality transcribe it into rows.
package bipartite

import "fmt"

// LocalityEdge is one edge of the §IV-A locality relation: process Proc
// holds MB megabytes of task Task's input data on its local disks.
type LocalityEdge struct {
	Proc int
	Task int
	MB   float64
}

// Rows is a list of edge rows stored flat: row i is Edges[Off[i]:Off[i+1]].
// MatchRows reads them file-side, the layout of the locality index's task view.
type Rows struct {
	Edges []LocalityEdge
	Off   []int
}

// Row returns row i, capacity-capped so a caller's append cannot reach the
// next row.
func (r *Rows) Row(i int) []LocalityEdge {
	lo, hi := r.Off[i], r.Off[i+1]
	return r.Edges[lo:hi:hi]
}

// Edge connects a process to a file in the locality graph. Weight is the
// number of megabytes of the file's data that the process can read locally
// (for whole chunks this is simply the chunk size).
type Edge struct {
	P      int
	F      int
	Weight int64
}

// Graph is the process side of the §IV-A locality graph G = (P, F, E): for
// each process, an edge to every file that has a replica co-located with
// it, in per-process lists. Bench/trace only: the service's planners read
// the locality index's rows instead.
type Graph struct {
	numP, numF int
	byP        [][]Edge // edges grouped by process, file-ascending
	edges      int
}

// NumEdges reports the number of locality edges.
func (g *Graph) NumEdges() int { return g.edges }

// NewGraphFromSorted builds a graph from complete per-process adjacency
// lists: byP[p] must hold process p's edges in ascending file order with
// distinct files, positive weights, and P set to p. The graph takes
// ownership of byP without copying. Invalid input panics. Bench/trace only.
func NewGraphFromSorted(numP, numF int, byP [][]Edge) *Graph {
	if numP < 0 || numF < 0 {
		panic(fmt.Sprintf("bipartite: invalid graph dimensions %dx%d", numP, numF))
	}
	if len(byP) != numP {
		panic(fmt.Sprintf("bipartite: %d adjacency lists for %d processes", len(byP), numP))
	}
	g := &Graph{numP: numP, numF: numF, byP: byP}
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
		}
	}
	return g
}
