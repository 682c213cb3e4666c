package bipartite

import (
	"context"
	"fmt"
)

// Algorithm selects the solver behind the single-data planner: the phased
// matcher for equal-size problems, or one of two max-flow algorithms for
// AssignMaxLocality.
type Algorithm int

const (
	// Kuhn is the direct phased matcher (MatchRows) and the zero
	// value. It only applies when every task has the same size, where the
	// flow problem degenerates to quota-constrained bipartite matching;
	// AssignMaxLocality and the single-data planner on unequal sizes treat
	// it as Dinic. The name predates the phased algorithm.
	Kuhn Algorithm = iota
	// EdmondsKarp is Ford-Fulkerson with BFS augmenting paths — the
	// algorithm the paper's implementation uses, kept for the §V-C2
	// ablation and as the tests' oracle.
	EdmondsKarp
	// Dinic is the blocking-flow algorithm: the flow solver on the
	// request path.
	Dinic
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case EdmondsKarp:
		return "edmonds-karp"
	case Dinic:
		return "dinic"
	case Kuhn:
		return "kuhn"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// AssignResult is the outcome of the flow-based locality assignment of
// §IV-B.
type AssignResult struct {
	// Owner[f] is the process assigned file f, or -1 when the flow could
	// not assign f to a single co-located process (no locality edge, or the
	// optimum split the file between processes). Unowned files are the
	// "unmatched tasks" the paper assigns randomly afterwards.
	Owner []int
}

// AssignMaxLocality runs AssignMaxLocalityContext, uncancellable, over g's
// edges. Bench/trace only: bench/'s tracer times a Graph build and the solve
// as two spans.
func AssignMaxLocality(g *Graph, quotas, sizes []int64, algo Algorithm) AssignResult {
	res, _ := AssignMaxLocalityContext(context.Background(), g.procRows(), quotas, sizes, algo)
	return res
}

// procRows transcribes g's process lists, in order, into process rows.
func (g *Graph) procRows() *Rows {
	rows := &Rows{Edges: make([]LocalityEdge, 0, g.edges), Off: make([]int, 1, g.numP+1)}
	for _, es := range g.byP {
		for _, e := range es {
			rows.Edges = append(rows.Edges, LocalityEdge{Proc: e.P, Task: e.F, MB: float64(e.Weight)})
		}
		rows.Off = append(rows.Off, len(rows.Edges))
	}
	return rows
}

// AssignMaxLocalityContext encodes the locality relation as the flow
// network of Figure 5 and computes a maximum locality assignment:
//
//	s --quota[p]--> p --size[f]--> f --size[f]--> t
//
// with one s->p arc per process (capacity: the process's data quota,
// typically TotalSize/m), one p->f arc per locality edge, and one f->t arc
// per file. Row p of procRows lists process p's edges (Proc p), one per
// co-located file (Task); MB is not read, since a single-input file is
// co-located whole. The max flow saturates as many f->t arcs as capacities
// allow; a file whose whole size crosses one p->f arc is assigned to that
// process. Dinic solves it unless algo names EdmondsKarp.
//
// sizes[f] must be positive; quotas must be non-negative and should sum to
// at least the total size for a full matching to be possible. The solver
// checks ctx between augmenting rounds (Edmonds-Karp) or phases (Dinic) and
// returns ctx's error instead of a partial assignment when it fires.
func AssignMaxLocalityContext(ctx context.Context, procRows *Rows, quotas, sizes []int64, algo Algorithm) (AssignResult, error) {
	if err := ctx.Err(); err != nil {
		return AssignResult{}, err
	}
	numP, numF := len(quotas), len(sizes)
	if len(procRows.Off) != numP+1 {
		panic(fmt.Sprintf("bipartite: %d quotas for %d process rows", numP, len(procRows.Off)-1))
	}
	s, t := 0, 1+numP+numF
	fn := NewFlowNetwork(t + 1)
	for p, q := range quotas {
		if q < 0 {
			panic(fmt.Sprintf("bipartite: quota[%d] = %d must be non-negative", p, q))
		}
		fn.AddArc(s, 1+p, q)
	}
	// Edge k's p->f arc is arc 2·(numP+k).
	edges := procRows.Edges[procRows.Off[0]:procRows.Off[numP]]
	for _, e := range edges {
		fn.AddArc(1+e.Proc, 1+numP+e.Task, sizes[e.Task])
	}
	for f, size := range sizes {
		if size <= 0 {
			panic(fmt.Sprintf("bipartite: size[%d] = %d must be positive", f, size))
		}
		fn.AddArc(1+numP+f, t, size)
	}

	fn.SetStop(ctx.Err)
	if algo == EdmondsKarp {
		fn.MaxFlowEK(s, t)
	} else {
		fn.MaxFlowDinic(s, t)
	}
	if err := fn.StopErr(); err != nil {
		return AssignResult{}, err
	}
	// The f->t arc admits at most sizes[f], so at most one p->f arc carries
	// all of it: that process owns f.
	res := AssignResult{Owner: make([]int, numF)}
	for f := range res.Owner {
		res.Owner[f] = -1
	}
	for k, e := range edges {
		if fn.Flow(2*(numP+k)) == sizes[e.Task] {
			res.Owner[e.Task] = e.Proc
		}
	}
	return res, nil
}
