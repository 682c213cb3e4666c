package dfs

import (
	"math/rand"
	"slices"
	"sort"
)

// Placement chooses the nodes that will host a chunk's replicas. Place must
// return exactly r distinct members of live. Implementations must draw all
// randomness from rng so file system construction stays deterministic.
type Placement interface {
	Place(rng *rand.Rand, view ClusterView, live []int, r int, c *Chunk) []int
}

// RandomPlacement scatters replicas uniformly over distinct live nodes.
// This is how HDFS placement looks to the paper's MPI clients: the writer
// is outside the cluster, so every replica lands on a random node (subject
// to the no-two-replicas-per-node rule).
type RandomPlacement struct{}

// Place implements Placement.
func (RandomPlacement) Place(rng *rand.Rand, _ ClusterView, live []int, r int, _ *Chunk) []int {
	idx := rng.Perm(len(live))[:r]
	out := make([]int, r)
	for i, j := range idx {
		out[i] = live[j]
	}
	return out
}

// RackAwarePlacement mimics the HDFS default block placement policy for an
// in-cluster writer: the first replica goes to a designated writer node
// (rotating over chunks when Writer < 0), the second to a node on a
// different rack, and the third to a different node on the second replica's
// rack. Remaining replicas (r > 3) are placed randomly.
type RackAwarePlacement struct {
	// Writer pins the first replica's node; a negative value rotates the
	// writer across chunks (chunk index modulo live nodes), approximating a
	// parallel writer per the Garth/Sun HDFS-writing schemes the paper cites.
	Writer int
}

// Place implements Placement.
func (p RackAwarePlacement) Place(rng *rand.Rand, view ClusterView, live []int, r int, c *Chunk) []int {
	chosen := make([]int, 0, r)
	used := make(map[int]bool, r)
	pick := func(candidates []int) bool {
		if len(candidates) == 0 {
			return false
		}
		n := candidates[rng.Intn(len(candidates))]
		chosen = append(chosen, n)
		used[n] = true
		return true
	}

	first := p.Writer
	if first < 0 || !slices.Contains(live, first) {
		// No writer pinned, or the pinned writer is dead/out of range:
		// rotate over chunks either way. Falling back to a random node
		// would silently break the rotating-writer determinism callers
		// rely on (and consume an extra RNG draw, shifting every later
		// placement decision).
		first = live[c.Index%len(live)]
	}
	chosen = append(chosen, first)
	used[first] = true

	if len(chosen) < r {
		// Second replica: different rack than the first, if one exists.
		other := filter(live, func(n int) bool {
			return !used[n] && view.RackOf(n) != view.RackOf(first)
		})
		if len(other) == 0 {
			other = filter(live, func(n int) bool { return !used[n] })
		}
		pick(other)
	}
	if len(chosen) < r && len(chosen) >= 2 {
		// Third replica: same rack as the second, different node.
		second := chosen[1]
		same := filter(live, func(n int) bool {
			return !used[n] && view.RackOf(n) == view.RackOf(second)
		})
		if len(same) == 0 {
			same = filter(live, func(n int) bool { return !used[n] })
		}
		pick(same)
	}
	for len(chosen) < r {
		rest := filter(live, func(n int) bool { return !used[n] })
		if !pick(rest) {
			break
		}
	}
	return chosen
}

// ClusteredPlacement piles replicas onto the lowest-numbered live nodes —
// a pathological policy used by tests and the placement ablation to model
// the skew left behind by node addition (new nodes empty, old nodes full).
type ClusteredPlacement struct{}

// Place implements Placement.
func (ClusteredPlacement) Place(_ *rand.Rand, _ ClusterView, live []int, r int, _ *Chunk) []int {
	sorted := append([]int(nil), live...)
	sort.Ints(sorted)
	return append([]int(nil), sorted[:r]...)
}

// RoundRobinPlacement stripes chunk replicas evenly across live nodes:
// the replicas of the chunk with global ID i land on nodes (i*r+k) mod
// len(live). It produces the "ideal" even distribution under which a full
// matching always exists, which the even/uneven placement ablation compares
// against.
type RoundRobinPlacement struct{}

// Place implements Placement.
func (RoundRobinPlacement) Place(_ *rand.Rand, _ ClusterView, live []int, r int, c *Chunk) []int {
	out := make([]int, r)
	for k := 0; k < r; k++ {
		out[k] = live[(int(c.ID)*r+k)%len(live)]
	}
	// The modulo stripe can collide when r approaches len(live); repair by
	// walking forward to the next unused node.
	used := map[int]bool{}
	for i, n := range out {
		for used[n] {
			n = live[(slices.Index(live, n)+1)%len(live)]
		}
		out[i] = n
		used[n] = true
	}
	return out
}

func filter(xs []int, keep func(int) bool) []int {
	var out []int
	for _, x := range xs {
		if keep(x) {
			out = append(out, x)
		}
	}
	return out
}

// countWhere and nthWhere read filter(xs, keep) without building it: its
// length, and its element k.
func countWhere(xs []int, keep func(int) bool) int {
	n := 0
	for _, x := range xs {
		if keep(x) {
			n++
		}
	}
	return n
}

func nthWhere(xs []int, keep func(int) bool, k int) int {
	for _, x := range xs {
		if keep(x) {
			if k == 0 {
				return x
			}
			k--
		}
	}
	panic("dfs: nthWhere past the end")
}
