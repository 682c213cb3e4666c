package core

import (
	"context"
	"slices"
	"sort"
	"sync"

	"opass/internal/bipartite"
)

// This file implements the shared locality index behind every planner's hot
// path. The §IV-A locality graph is sparse — a task touches at most
// inputs × replicas nodes, so at most that many processes hold any of its
// data — yet the planners used to discover it by probing CoLocatedMB for
// every (process, task) pair, an O(m·n·inputs·replicas) sweep. The index
// inverts the problem once: node→processes from ProcNode and chunk→replicas
// from the namenode metadata, yielding every (process, task, MB) locality
// edge in O(edges) total. SingleData's matcher (on the task rows, in place)
// and flow-network build, MultiData's preference lists, and the dynamic
// scheduler's steal scan all run off it.
//
// The per-task accumulation order matches CoLocatedMB exactly (inputs in
// declaration order, each added once per co-located process), so the
// floating-point weights are bit-identical to the probe path — the golden
// plan tests rely on this.
//
// The build is one serial pass per tier. A per-task worker pool was tried
// and measured slower than this loop at GOMAXPROCS=2 at every size from
// 2,560 to 1M tasks (EXPERIMENTS.md §V-C2): one task is three edges of
// work, far less than the hand-off that parallelises it.
//
// At service scale (10k procs / 1M tasks) an index is tens of millions of
// LocalityEdge values; allocating and dropping that on every plan dominates
// allocator time, so everything a build allocates that scales with the
// problem lives in one pooled indexBuf. Request-scoped consumers (the
// planners) call Release when done; long-lived holders (the dynamic
// scheduler) simply never release and the GC reclaims the buffer.

// LocalityEdge is one edge of the §IV-A locality graph. It is bipartite's
// edge type, so the phased matcher reads the index's task rows in place.
type LocalityEdge = bipartite.LocalityEdge

// LocalityIndex is the inverted locality view of a Problem. It is immutable
// after construction; the underlying Problem and FileSystem must not change
// while the index is in use.
type LocalityIndex struct {
	p          *Problem
	buf        *indexBuf // owns every edge view until Release
	edges      int
	rackTiered bool // the rack tier (rack.go) is built only for rack-tiered problems
	released   bool
}

// indexCtxStride is how many per-task accumulations run between context
// polls during the index build.
const indexCtxStride = 512

// indexBuf holds one index's storage — the three edge views and the
// accumulation scratch that fills them — and is what indexBufPool recycles.
// Every array is regrown from length zero (slices.Grow), so a build keeps
// what fits and reallocates what does not. Stale contents are harmless: a
// build overwrites every element it later reads, and the stamps only ever
// compare against a fresh epoch.
type indexBuf struct {
	byTask     bipartite.Rows // task -> edges, Proc-ascending
	byProc     bipartite.Rows // proc -> edges, Task-ascending
	byTaskRack bipartite.Rows // task -> rack-tier edges, Proc-ascending
	pos        []int          // transpose write cursors, one per process

	// Accumulated MB per process for the current task, with an epoch stamp
	// so the arrays reset in O(touched) instead of O(m) per task. The epoch
	// survives pooling — it only ever increments.
	mb      []float64
	stamp   []int
	epoch   int
	touched []int
	racks   []int // rack tier only: racks of the current input
}

var indexBufPool = sync.Pool{New: func() any { return new(indexBuf) }}

// groupRanks inverts key: group g of the result lists the ranks i with
// key[i] == g in ascending order, all carved from one array. Negative keys
// belong to no group.
func groupRanks(key []int, groups int) [][]int {
	off := make([]int, groups+1)
	for _, k := range key {
		if k >= 0 {
			off[k+1]++
		}
	}
	out := make([][]int, groups)
	flat := make([]int, len(key))
	for g := range out {
		off[g+1] += off[g]
		out[g] = flat[off[g]:off[g]:off[g+1]]
	}
	for i, k := range key {
		if k >= 0 {
			out[k] = append(out[k], i)
		}
	}
	return out
}

// add accumulates mb megabytes of the current task onto process proc.
func (b *indexBuf) add(proc int, mb float64) {
	if b.stamp[proc] != b.epoch {
		b.stamp[proc] = b.epoch
		b.mb[proc] = 0
		b.touched = append(b.touched, proc)
	}
	b.mb[proc] += mb
}

// buildTier fills one tier of the index: row t of dst receives task t's
// edges, Proc-ascending, weighted by whatever accumulate adds for t through
// indexBuf.add. maxEdges is an upper bound on the tier's edge count, so a
// cold buffer is allocated once instead of grown. The loop polls ctx once
// per indexCtxStride tasks; on a ctx error dst is partial and the caller
// must Release the index.
func (ix *LocalityIndex) buildTier(ctx context.Context, dst *bipartite.Rows, maxEdges int, accumulate func(b *indexBuf, t int)) error {
	n, b := len(ix.p.Tasks), ix.buf
	dst.Off = slices.Grow(dst.Off[:0], n+1)[:n+1]
	edges := slices.Grow(dst.Edges[:0], maxEdges)
	for t := 0; t < n; t++ {
		if t%indexCtxStride == 0 && ctx.Err() != nil {
			dst.Edges = edges // a freshly sized array still serves the next build
			return ctx.Err()
		}
		dst.Off[t] = len(edges)
		b.epoch++
		b.touched = b.touched[:0]
		accumulate(b, t)
		sort.Ints(b.touched)
		for _, proc := range b.touched {
			edges = append(edges, LocalityEdge{Proc: proc, Task: t, MB: b.mb[proc]})
		}
	}
	dst.Off[n] = len(edges)
	dst.Edges = edges
	return nil
}

// NewLocalityIndex builds the index in O(edges) by walking each task's
// inputs through the chunk→replica and node→process inversions.
func NewLocalityIndex(p *Problem) *LocalityIndex {
	ix, _ := NewLocalityIndexContext(context.Background(), p)
	return ix
}

// NewLocalityIndexContext is NewLocalityIndex under cooperative
// cancellation: the build polls ctx every indexCtxStride tasks and returns
// ctx's error instead of a partial index.
func NewLocalityIndexContext(ctx context.Context, p *Problem) (*LocalityIndex, error) {
	m := p.NumProcs()
	b := indexBufPool.Get().(*indexBuf)
	ix := &LocalityIndex{p: p, buf: b}
	b.mb, b.stamp = slices.Grow(b.mb[:0], m)[:m], slices.Grow(b.stamp[:0], m)[:m]

	// Invert ProcNode: which process ranks live on each node.
	maxNode := -1
	for _, node := range p.ProcNode {
		maxNode = max(maxNode, node)
	}
	procsOn := groupRanks(p.ProcNode, maxNode+1)
	// One edge per (input, replica, co-located process) at most; exact for
	// single-input tasks, where no two inputs can share a process.
	maxEdges := 0
	for t := range p.Tasks {
		for _, in := range p.Tasks[t].Inputs {
			for _, node := range p.FS.Replicas(in.Chunk) {
				if node >= 0 && node < len(procsOn) {
					maxEdges += len(procsOn[node])
				}
			}
		}
	}

	err := ix.buildTier(ctx, &b.byTask, maxEdges, func(b *indexBuf, t int) {
		for _, in := range p.Tasks[t].Inputs {
			for _, node := range p.FS.Replicas(in.Chunk) {
				if node < 0 || node >= len(procsOn) {
					continue
				}
				for _, proc := range procsOn[node] {
					b.add(proc, in.SizeMB)
				}
			}
		}
	})
	if err != nil {
		ix.Release()
		return nil, err
	}

	// Transpose into the per-process view with a counting sort. Tasks are
	// visited in ascending order, so byProc stays Task-ascending without a
	// comparison sort.
	edges := b.byTask.Edges
	off := slices.Grow(b.byProc.Off[:0], m+1)[:m+1]
	clear(off)
	for _, e := range edges {
		off[e.Proc+1]++
	}
	for proc := 0; proc < m; proc++ {
		off[proc+1] += off[proc]
	}
	b.pos = append(b.pos[:0], off[:m]...)
	byProc := slices.Grow(b.byProc.Edges[:0], len(edges))[:len(edges)]
	for _, e := range edges {
		byProc[b.pos[e.Proc]] = e
		b.pos[e.Proc]++
	}
	b.byProc = bipartite.Rows{Edges: byProc, Off: off}
	ix.edges = len(edges)

	if err := ix.buildRackTier(ctx); err != nil {
		ix.Release()
		return nil, err
	}
	return ix, nil
}

// Release returns the index's storage (and with it every edge slice ever
// returned by TaskEdges/ProcEdges/TaskRackEdges) to the package pool for
// the next build. It is optional and purely a performance lever: an index
// that is simply dropped is garbage-collected. The caller must be the sole
// user of the index — after Release the index and any views obtained from
// it are invalid. Releasing twice panics; releasing a nil index is a no-op
// so error paths can call it unconditionally.
func (ix *LocalityIndex) Release() {
	if ix == nil {
		return
	}
	if ix.released {
		panic("core: LocalityIndex.Release called twice")
	}
	ix.released = true
	indexBufPool.Put(ix.buf)
	ix.p, ix.buf = nil, nil
}

// NumEdges reports the number of locality edges (pairs with positive
// co-located data).
func (ix *LocalityIndex) NumEdges() int { return ix.edges }

// TaskEdges returns task t's locality edges in ascending process order. The
// slice is a read-only view owned by the index.
func (ix *LocalityIndex) TaskEdges(t int) []LocalityEdge { return ix.buf.byTask.Row(t) }

// ProcEdges returns process p's locality edges in ascending task order. The
// slice is a read-only view owned by the index.
func (ix *LocalityIndex) ProcEdges(p int) []LocalityEdge { return ix.buf.byProc.Row(p) }

// CoLocatedMB returns the co-located megabytes for (proc, task) by binary
// search — the same value Problem.CoLocatedMB computes by probing, in
// O(log degree) instead of O(inputs·replicas).
func (ix *LocalityIndex) CoLocatedMB(proc, task int) float64 {
	return mbOf(ix.buf.byTask.Row(task), proc)
}

// mbOf looks proc up in a Proc-ascending edge row; zero when absent.
func mbOf(es []LocalityEdge, proc int) float64 {
	i := sort.Search(len(es), func(k int) bool { return es[k].Proc >= proc })
	if i < len(es) && es[i].Proc == proc {
		return es[i].MB
	}
	return 0
}
