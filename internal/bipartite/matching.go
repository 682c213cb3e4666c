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
	// it as Edmonds-Karp. The name predates the phased algorithm.
	Kuhn Algorithm = iota
	// EdmondsKarp is Ford-Fulkerson with BFS augmenting paths — the
	// algorithm the paper's implementation uses.
	EdmondsKarp
	// Dinic is the blocking-flow algorithm, used by the scalability
	// ablation.
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
	// LocalMB is the maximum-flow value: the total megabytes that will be
	// read locally under this assignment before the random repair step.
	LocalMB int64
	// AssignedMB[p] is the load (MB) the matching placed on process p.
	AssignedMB []int64
	// Full reports whether the matching is a full matching in the paper's
	// sense: every file is assigned to a co-located process.
	Full bool
}

// AssignMaxLocality encodes the locality graph as the flow network of
// Figure 5 and computes a maximum locality assignment:
//
//	s --quota[p]--> p --size[f]--> f --size[f]--> t
//
// with one s->p arc per process (capacity: the process's data quota,
// typically TotalSize/m), one p->f arc per locality edge, and one f->t arc
// per file. The max flow saturates as many f->t arcs as capacities allow;
// a file whose f->t arc is saturated through a single process is assigned
// to that process.
//
// sizes[f] must be positive; quotas must be non-negative and should sum to
// at least the total size for a full matching to be possible.
func AssignMaxLocality(g *Graph, quotas, sizes []int64, algo Algorithm) AssignResult {
	res, _ := AssignMaxLocalityContext(context.Background(), g, quotas, sizes, algo)
	return res
}

// AssignMaxLocalityContext is AssignMaxLocality under cooperative
// cancellation: the solver checks ctx between augmenting rounds and returns
// ctx's error instead of a partial assignment when it fires.
func AssignMaxLocalityContext(ctx context.Context, g *Graph, quotas, sizes []int64, algo Algorithm) (AssignResult, error) {
	if err := ctx.Err(); err != nil {
		return AssignResult{}, err
	}
	if len(quotas) != g.NumP() {
		panic(fmt.Sprintf("bipartite: %d quotas for %d processes", len(quotas), g.NumP()))
	}
	if len(sizes) != g.NumF() {
		panic(fmt.Sprintf("bipartite: %d sizes for %d files", len(sizes), g.NumF()))
	}
	numP, numF := g.NumP(), g.NumF()
	s := 0
	procBase := 1
	fileBase := 1 + numP
	t := 1 + numP + numF
	fn := NewFlowNetwork(t + 1)

	for p := 0; p < numP; p++ {
		if quotas[p] < 0 {
			panic(fmt.Sprintf("bipartite: quota[%d] = %d must be non-negative", p, quotas[p]))
		}
		fn.AddArc(s, procBase+p, quotas[p])
	}
	type pfArc struct {
		p, f, id int
	}
	var pf []pfArc
	for p := 0; p < numP; p++ {
		for _, e := range g.EdgesOfP(p) {
			// The paper caps the process->file edge at the file size; the
			// locality weight is per-chunk data co-located, which for
			// single-chunk files equals the size.
			c := sizes[e.F]
			if e.Weight < c {
				c = e.Weight
			}
			pf = append(pf, pfArc{p: p, f: e.F, id: fn.AddArc(procBase+p, fileBase+e.F, c)})
		}
	}
	for f := 0; f < numF; f++ {
		if sizes[f] <= 0 {
			panic(fmt.Sprintf("bipartite: size[%d] = %d must be positive", f, sizes[f]))
		}
		fn.AddArc(fileBase+f, t, sizes[f])
	}

	var value int64
	fn.SetStop(ctx.Err)
	switch algo {
	case Dinic:
		value = fn.MaxFlowDinic(s, t)
	default:
		value = fn.MaxFlowEK(s, t)
	}
	if err := fn.StopErr(); err != nil {
		return AssignResult{}, err
	}

	res := AssignResult{
		Owner:      make([]int, numF),
		LocalMB:    value,
		AssignedMB: make([]int64, numP),
		Full:       true,
	}
	// A file belongs to p only when p alone carries the file's full size.
	carried := make([]int64, numF)
	carrier := make([]int, numF)
	split := make([]bool, numF)
	for f := range res.Owner {
		res.Owner[f] = -1
		carrier[f] = -1
	}
	for _, a := range pf {
		fl := fn.Flow(a.id)
		if fl <= 0 {
			continue
		}
		if carrier[a.f] != -1 {
			split[a.f] = true
		}
		carrier[a.f] = a.p
		carried[a.f] += fl
	}
	for f := 0; f < numF; f++ {
		if !split[f] && carrier[f] >= 0 && carried[f] == sizes[f] {
			res.Owner[f] = carrier[f]
			res.AssignedMB[carrier[f]] += sizes[f]
		} else {
			res.Full = false
		}
	}
	return res, nil
}
