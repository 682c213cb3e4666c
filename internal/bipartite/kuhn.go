package bipartite

import "context"

// This file implements Kuhn's augmenting-path algorithm for quota-
// constrained maximum bipartite matching. When every task has the same
// size — the common case in the paper's evaluation, where tasks are whole
// 64 MB chunks — the §IV-B flow problem reduces to maximum bipartite
// matching where process p may own up to quota[p] tasks, and a direct
// matching algorithm avoids building the flow network at all. It rounds
// out the algorithm ablation (BenchmarkMatchers) as the third solver next
// to Edmonds-Karp and Dinic.

// MatchAugmenting computes a maximum quota-constrained matching of files to
// processes with Kuhn's algorithm (greedy initialization + augmenting-path
// search per unmatched file). It returns owner[f] = process or -1 and the
// matching size. The result size always equals the max-flow formulation's
// (asserted by property tests); only the specific assignment may differ.
func MatchAugmenting(g *Graph, quota []int) (owner []int, size int) {
	owner, size, _ = MatchAugmentingContext(context.Background(), g, quota)
	return owner, size
}

// MatchAugmentingContext is MatchAugmenting under cooperative cancellation:
// ctx is checked before each augmenting-path search (each search is one
// O(V+E) pass, so cancellation lands within a single search) and its error
// is returned instead of a partial matching.
func MatchAugmentingContext(ctx context.Context, g *Graph, quota []int) (owner []int, size int, err error) {
	numP, numF := g.NumP(), g.NumF()
	if len(quota) != numP {
		panic("bipartite: quota length mismatch")
	}
	owner = make([]int, numF)
	for f := range owner {
		owner[f] = -1
	}
	owned := make([][]int, numP) // files currently owned by each process

	attach := func(f, p int) {
		owner[f] = p
		owned[p] = append(owned[p], f)
	}
	detach := func(f, p int) {
		// Swap-remove instead of append(files[:i], files[i+1:]...): the
		// shifting remove rewrites every element after i in the backing
		// array, so any alias of owned[p] taken before the call would see
		// wholesale-relocated contents. The swap touches exactly one slot
		// and stays O(1).
		files := owned[p]
		for i, x := range files {
			if x == f {
				last := len(files) - 1
				files[i] = files[last]
				owned[p] = files[:last]
				return
			}
		}
		panic("bipartite: detach of unowned file")
	}

	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	// Greedy initialization: cheap and removes most augmentation work.
	for f := 0; f < numF; f++ {
		for _, e := range g.EdgesOfF(f) {
			if len(owned[e.P]) < quota[e.P] {
				attach(f, e.P)
				size++
				break
			}
		}
	}

	visited := make([]bool, numP)
	var try func(f int) bool
	try = func(f int) bool {
		for _, e := range g.EdgesOfF(f) {
			p := e.P
			if visited[p] || quota[p] == 0 {
				continue
			}
			visited[p] = true
			if len(owned[p]) < quota[p] {
				attach(f, p)
				return true
			}
			// p is full: try to push one of its files elsewhere. Iterate
			// over a snapshot because a successful recursive try mutates
			// owned[p] via the displaced file's new attachment elsewhere.
			snapshot := append([]int(nil), owned[p]...)
			for _, f2 := range snapshot {
				if try(f2) {
					// f2 found a new home; it no longer belongs to p.
					detach(f2, p)
					attach(f, p)
					return true
				}
			}
		}
		return false
	}

	for f := 0; f < numF; f++ {
		if owner[f] != -1 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		for i := range visited {
			visited[i] = false
		}
		if try(f) {
			size++
		}
	}
	return owner, size, nil
}
