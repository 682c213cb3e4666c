package core

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// This file implements the shared locality index behind every planner's hot
// path. The §IV-A locality graph is sparse — a task touches at most
// inputs × replicas nodes, so at most that many processes hold any of its
// data — yet the planners used to discover it by probing CoLocatedMB for
// every (process, task) pair, an O(m·n·inputs·replicas) sweep. The index
// inverts the problem once: node→processes from ProcNode and chunk→replicas
// from the namenode metadata, yielding every (process, task, MB) locality
// edge in O(edges) total. SingleData's flow-network build, MultiData's
// preference lists, and the dynamic scheduler's steal scan all run off it.
//
// The per-task accumulation order matches CoLocatedMB exactly (inputs in
// declaration order, each added once per co-located process), so the
// floating-point weights are bit-identical to the probe path — the golden
// plan tests rely on this to prove the refactor is behavior-preserving.
//
// At service scale (10k procs / 1M tasks) the index's edge storage is tens
// of millions of LocalityEdge values per request; building and dropping
// that on every plan dominates allocator time. The heavy buffers — the
// fixed-size arena blocks per-task edge slices are carved from, the byProc
// transpose backing, and the per-worker accumulation scratch — are
// therefore recycled through package-level sync.Pools. Request-scoped
// consumers (the planners) call Release when done; long-lived holders (the
// dynamic scheduler) simply never release and the GC reclaims as before.

// LocalityEdge is one edge of the §IV-A bipartite locality graph: process
// Proc holds MB megabytes of task Task's input data on its local disks.
type LocalityEdge struct {
	Proc int
	Task int
	MB   float64
}

// LocalityIndex is the inverted locality view of a Problem. It is immutable
// after construction; the underlying Problem and FileSystem must not change
// while the index is in use.
type LocalityIndex struct {
	p      *Problem
	byTask [][]LocalityEdge // task -> edges, Proc-ascending
	byProc [][]LocalityEdge // proc -> edges, Task-ascending
	edges  int

	// Rack tier (see rack.go): built only for rack-tiered problems.
	rackTiered bool
	byTaskRack [][]LocalityEdge // task -> rack-local edges, Proc-ascending

	// Pooled-buffer bookkeeping for Release: every standard arena block the
	// build carved edge slices from, and the byProc transpose backing.
	blocks   []*[]LocalityEdge
	backing  *[]LocalityEdge
	released bool
}

// indexParallelThreshold is the task count below which the index builds
// serially; tiny problems don't amortize the worker-pool handoff.
const indexParallelThreshold = 256

// indexCtxStride is how many per-task accumulations run between context
// polls during the index build (serially and per worker).
const indexCtxStride = 512

// edgeBlockSize is the arena block granularity: one allocation (or pool
// fetch) per ~4096 edges instead of one per task.
const edgeBlockSize = 4096

// edgeBlockPool recycles the fixed-size arena blocks. Stale contents are
// harmless: a carve writes every element of the slice it returns before the
// slice becomes visible.
var edgeBlockPool = sync.Pool{New: func() any {
	b := make([]LocalityEdge, edgeBlockSize)
	return &b
}}

// backingPool recycles the byProc transpose backing array (one contiguous
// slice holding every edge of an index, capacity varies by problem).
var backingPool sync.Pool

// scratchPool recycles per-worker accumulation scratch between builds.
var scratchPool sync.Pool

// buildScratch is buildTier's per-worker accumulation state: accumulated MB
// per process plus an epoch stamp so the arrays reset in O(touched) instead
// of O(m) per task. The epoch survives pooling — it only ever increments,
// so stale stamps from a previous build can never collide with a fresh
// epoch.
type buildScratch struct {
	mb      []float64
	stamp   []int
	epoch   int
	touched []int
	racks   []int          // rack tier only: racks of the current input
	arena   []LocalityEdge // remaining tail of the current block
	blocks  []*[]LocalityEdge
}

// newScratch fetches (or grows) a pooled scratch sized for m processes.
func newScratch(m int) *buildScratch {
	s, _ := scratchPool.Get().(*buildScratch)
	if s == nil {
		s = new(buildScratch)
	}
	if cap(s.mb) < m {
		s.mb = make([]float64, m)
		s.stamp = make([]int, m)
	} else {
		s.mb = s.mb[:m]
		s.stamp = s.stamp[:m]
	}
	return s
}

// carve returns an edge slice of exactly need elements from the block
// arena. Full slice expressions cap the capacity so neighboring carves can
// never overlap. Oversized needs get a dedicated (non-recycled) allocation.
func (s *buildScratch) carve(need int) []LocalityEdge {
	if need > edgeBlockSize {
		return make([]LocalityEdge, need)
	}
	if len(s.arena) < need {
		bp := edgeBlockPool.Get().(*[]LocalityEdge)
		s.blocks = append(s.blocks, bp)
		s.arena = *bp
	}
	es := s.arena[:need:need]
	s.arena = s.arena[need:]
	return es
}

// handoff moves the blocks this scratch drew into the index (which owns
// them until Release) and returns the scratch to the pool.
func (s *buildScratch) handoff(ix *LocalityIndex, mu *sync.Mutex) {
	if len(s.blocks) > 0 {
		if mu != nil {
			mu.Lock()
		}
		ix.blocks = append(ix.blocks, s.blocks...)
		if mu != nil {
			mu.Unlock()
		}
	}
	s.blocks = nil
	s.arena = nil
	s.touched = s.touched[:0]
	s.racks = s.racks[:0]
	scratchPool.Put(s)
}

// add accumulates mb megabytes of the current task onto process proc.
func (s *buildScratch) add(proc int, mb float64) {
	if s.stamp[proc] != s.epoch {
		s.stamp[proc] = s.epoch
		s.mb[proc] = 0
		s.touched = append(s.touched, proc)
	}
	s.mb[proc] += mb
}

// buildTier fills one tier of the index: dst[t] receives task t's edges,
// Proc-ascending, weighted by whatever accumulate adds for t through
// buildScratch.add. The per-task accumulations are independent, so large
// problems fan out over a bounded GOMAXPROCS worker pool drawing tasks from
// an atomic cursor; the serial loop and every worker poll ctx once per
// indexCtxStride tasks. On a ctx error dst is partial and the caller must
// Release the index (the arena blocks drawn so far are already handed to it).
func (ix *LocalityIndex) buildTier(ctx context.Context, dst [][]LocalityEdge, accumulate func(s *buildScratch, t int)) error {
	n, m := len(dst), ix.p.NumProcs()
	perTask := func(s *buildScratch, t int) {
		s.epoch++
		s.touched = s.touched[:0]
		accumulate(s, t)
		if len(s.touched) == 0 {
			return
		}
		sort.Ints(s.touched)
		es := s.carve(len(s.touched))
		for i, proc := range s.touched {
			es[i] = LocalityEdge{Proc: proc, Task: t, MB: s.mb[proc]}
		}
		dst[t] = es
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if n < indexParallelThreshold || workers <= 1 {
		s := newScratch(m)
		defer s.handoff(ix, nil)
		for t := 0; t < n; t++ {
			if t%indexCtxStride == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			perTask(s, t)
		}
		return nil
	}
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			s := newScratch(m)
			defer func() {
				s.handoff(ix, &mu)
				wg.Done()
			}()
			for done := 0; ; done++ {
				if done%indexCtxStride == 0 && ctx.Err() != nil {
					return // partial tier; reported below
				}
				t := int(next.Add(1)) - 1
				if t >= n {
					return
				}
				perTask(s, t)
			}
		}()
	}
	wg.Wait()
	// ctx errors are sticky: if it fired at any point some worker may have
	// bailed mid-build, so dst cannot be trusted.
	return ctx.Err()
}

// getBacking fetches (or allocates) a contiguous edge slice of length n.
// Every element is overwritten by the transpose fill, so stale pooled
// contents are harmless. A pooled slice too small for n is dropped.
func getBacking(n int) *[]LocalityEdge {
	if bp, ok := backingPool.Get().(*[]LocalityEdge); ok && cap(*bp) >= n {
		*bp = (*bp)[:n]
		return bp
	}
	b := make([]LocalityEdge, n)
	return &b
}

// NewLocalityIndex builds the index in O(edges) by walking each task's
// inputs through the chunk→replica and node→process inversions. The
// independent per-task accumulations are fanned out over a bounded
// GOMAXPROCS worker pool on large problems.
func NewLocalityIndex(p *Problem) *LocalityIndex {
	ix, _ := NewLocalityIndexContext(context.Background(), p)
	return ix
}

// NewLocalityIndexContext is NewLocalityIndex under cooperative
// cancellation: the build (including its worker fan-out) polls ctx every
// indexCtxStride tasks and returns ctx's error instead of a partial index.
func NewLocalityIndexContext(ctx context.Context, p *Problem) (*LocalityIndex, error) {
	m, n := p.NumProcs(), len(p.Tasks)
	ix := &LocalityIndex{p: p, byTask: make([][]LocalityEdge, n)}

	// Invert ProcNode: which process ranks live on each node.
	maxNode := -1
	for _, node := range p.ProcNode {
		if node > maxNode {
			maxNode = node
		}
	}
	procsOn := make([][]int, maxNode+1)
	for proc, node := range p.ProcNode {
		if node >= 0 {
			procsOn[node] = append(procsOn[node], proc)
		}
	}

	err := ix.buildTier(ctx, ix.byTask, func(s *buildScratch, t int) {
		for _, in := range p.Tasks[t].Inputs {
			for _, node := range p.FS.Chunk(in.Chunk).Replicas {
				if node < 0 || node >= len(procsOn) {
					continue
				}
				for _, proc := range procsOn[node] {
					s.add(proc, in.SizeMB)
				}
			}
		}
	})
	if err != nil {
		ix.Release()
		return nil, err
	}

	// Transpose into the per-process view with a counting sort over one
	// shared backing array. Tasks are visited in ascending order, so byProc
	// stays Task-ascending without a comparison sort.
	deg := make([]int, m)
	for _, es := range ix.byTask {
		ix.edges += len(es)
		for _, e := range es {
			deg[e.Proc]++
		}
	}
	ix.backing = getBacking(ix.edges)
	backing := *ix.backing
	pos := make([]int, m)
	off := 0
	ix.byProc = make([][]LocalityEdge, m)
	for proc, d := range deg {
		pos[proc] = off
		ix.byProc[proc] = backing[off : off+d : off+d]
		off += d
	}
	for _, es := range ix.byTask {
		for _, e := range es {
			backing[pos[e.Proc]] = e
			pos[e.Proc]++
		}
	}
	if err := ix.buildRackTier(ctx); err != nil {
		ix.Release()
		return nil, err
	}
	return ix, nil
}

// Release returns the index's pooled buffers (arena blocks, transpose
// backing, and with them every edge slice ever returned by
// TaskEdges/ProcEdges/TaskRackEdges) to the package pools for the next
// build. It is optional and purely a performance lever: an index that is
// simply dropped is garbage-collected as before. The caller must be the
// sole user of the index — after Release the index and any views obtained
// from it are invalid. Releasing twice panics; releasing a nil index is a
// no-op so error paths can call it unconditionally.
func (ix *LocalityIndex) Release() {
	if ix == nil {
		return
	}
	if ix.released {
		panic("core: LocalityIndex.Release called twice")
	}
	ix.released = true
	for _, bp := range ix.blocks {
		edgeBlockPool.Put(bp)
	}
	ix.blocks = nil
	if ix.backing != nil {
		backingPool.Put(ix.backing)
		ix.backing = nil
	}
	ix.p = nil
	ix.byTask, ix.byProc, ix.byTaskRack = nil, nil, nil
}

// NumEdges reports the number of locality edges (pairs with positive
// co-located data).
func (ix *LocalityIndex) NumEdges() int { return ix.edges }

// Degrees returns the per-process and per-task edge counts, in the shape
// bipartite.Graph.Reserve expects, so a graph built from the index can
// pre-size its adjacency lists.
func (ix *LocalityIndex) Degrees() (procDeg, taskDeg []int) {
	procDeg = make([]int, len(ix.byProc))
	for p, es := range ix.byProc {
		procDeg[p] = len(es)
	}
	taskDeg = make([]int, len(ix.byTask))
	for t, es := range ix.byTask {
		taskDeg[t] = len(es)
	}
	return procDeg, taskDeg
}

// TaskEdges returns task t's locality edges in ascending process order. The
// slice is a read-only view owned by the index.
func (ix *LocalityIndex) TaskEdges(t int) []LocalityEdge { return ix.byTask[t] }

// ProcEdges returns process p's locality edges in ascending task order. The
// slice is a read-only view owned by the index.
func (ix *LocalityIndex) ProcEdges(p int) []LocalityEdge { return ix.byProc[p] }

// CoLocatedMB returns the co-located megabytes for (proc, task) by binary
// search — the same value Problem.CoLocatedMB computes by probing, in
// O(log degree) instead of O(inputs·replicas).
func (ix *LocalityIndex) CoLocatedMB(proc, task int) float64 {
	es := ix.byTask[task]
	i := sort.Search(len(es), func(k int) bool { return es[k].Proc >= proc })
	if i < len(es) && es[i].Proc == proc {
		return es[i].MB
	}
	return 0
}

// parallelFor runs fn(i) for i in [0, n) over a bounded GOMAXPROCS worker
// pool. Iterations must be independent; small n runs inline.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if n < 2 || workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// parallelChunks runs fn(lo, hi) over contiguous [lo, hi) ranges of [0, n)
// of at most chunk elements each, fanned out over the parallelFor pool.
// Chunk boundaries depend only on n and chunk — never on the worker count —
// so per-chunk partial results can be reduced deterministically.
func parallelChunks(n, chunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk < 1 {
		chunk = 1
	}
	chunks := (n + chunk - 1) / chunk
	parallelFor(chunks, func(i int) {
		lo := i * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}
