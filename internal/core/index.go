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
// edge in O(edges) total. SingleData's matcher and MultiData's proposals
// (on the task and process rows, in place), the flow-network build and the
// dynamic scheduler's steal scan all run off it.
//
// The build makes only what its caller reads. The task rows are always
// built; the process rows are a counting-sort transpose of them, made on
// the first ProcEdges call (only Algorithm 1 and the flow network read
// them); MultiExact's best-holder rows are appended while each task's
// accumulation is still in the scratch arrays. MultiExact's stage 1 reads
// only those, so its build leaves the task rows in the order the
// accumulation touched the processes and sorts them on their first read,
// which only stage 2 makes.
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

// LocalityIndex is the inverted locality view of a Problem. Its process
// view is built on the first ProcEdges call, so an index is used by one
// goroutine at a time; the underlying Problem and FileSystem must not
// change while the index is in use.
type LocalityIndex struct {
	p          *Problem
	buf        *indexBuf // owns every edge view until Release
	edges      int
	holders    int  // tasks with at least one edge; counted with the tight view
	rackTiered bool // the rack tier (rack.go) is built only for rack-tiered problems
	procBuilt  bool // byProc holds this index's transpose
	// unsorted: byTask's rows are in touch order, not Proc-ascending (a
	// tight build before its first taskRows). It lives here, not in the
	// pooled indexBuf, so no later build can inherit it.
	unsorted bool
	released bool
}

// indexCtxStride is how many per-task accumulations run between context
// polls during the index build.
const indexCtxStride = 512

// indexBuf holds one index's storage — the edge views and the accumulation
// scratch that fills them — and is what indexBufPool recycles.
// Every array is regrown from length zero (slices.Grow), so a build keeps
// what fits and reallocates what does not. Stale contents are harmless: a
// build overwrites every element it later reads, and the stamps only ever
// compare against a fresh epoch.
type indexBuf struct {
	byTask     bipartite.Rows // task -> edges, Proc-ascending once taskRows returns them
	byProc     bipartite.Rows // proc -> edges, Task-ascending until MultiData consumes them; built by ProcEdges
	byTaskRack bipartite.Rows // task -> rack-tier edges, Proc-ascending
	tight      bipartite.Rows // task -> best-holder edges, Proc-ascending, MultiExact's stage 1; built only for it
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
// belong to no group, and an empty group is nil.
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
		if off[g+1] > off[g] {
			out[g] = flat[off[g]:off[g]:off[g+1]]
		}
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
// cold buffer is allocated once instead of grown. A non-nil tight receives
// the same rows cut to their best holders (the edges whose MB is the row
// maximum), Proc-ascending, and ix.holders counts the tasks with an edge;
// dst's rows are then left in touch order for taskRows to sort. The loop
// polls ctx once per indexCtxStride tasks; on a ctx error dst is partial
// and the caller must Release the index.
func (ix *LocalityIndex) buildTier(ctx context.Context, dst, tight *bipartite.Rows, maxEdges int, accumulate func(b *indexBuf, t int)) error {
	n, b := len(ix.p.Tasks), ix.buf
	dst.Off = slices.Grow(dst.Off[:0], n+1)[:n+1]
	edges := slices.Grow(dst.Edges[:0], maxEdges)
	var best []LocalityEdge
	if tight != nil {
		tight.Off = slices.Grow(tight.Off[:0], n+1)[:n+1]
		best = slices.Grow(tight.Edges[:0], min(n, maxEdges))
	}
	for t := 0; t < n; t++ {
		if t%indexCtxStride == 0 && ctx.Err() != nil {
			dst.Edges = edges // freshly sized arrays still serve the next build
			if tight != nil {
				tight.Edges = best
			}
			return ctx.Err()
		}
		lo := len(edges)
		dst.Off[t] = lo
		b.epoch++
		b.touched = b.touched[:0]
		accumulate(b, t)
		if tight == nil {
			sort.Ints(b.touched)
		}
		top := 0.0 // every weight is positive
		for _, proc := range b.touched {
			mb := b.mb[proc]
			edges = append(edges, LocalityEdge{Proc: proc, Task: t, MB: mb})
			if mb > top {
				top = mb
			}
		}
		if tight == nil {
			continue
		}
		tight.Off[t] = len(best)
		for _, e := range edges[lo:] {
			if e.MB == top {
				best = append(best, e)
			}
		}
		slices.SortFunc(best[tight.Off[t]:], byProc)
		if len(edges) > lo {
			ix.holders++
		}
	}
	dst.Off[n] = len(edges)
	dst.Edges = edges
	if tight != nil {
		tight.Off[n] = len(best)
		tight.Edges = best
	}
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
	return newLocalityIndex(ctx, p, false)
}

// newLocalityIndex builds the index, and with tight also the best-holder
// rows MultiExact's stage 1 matches on.
func newLocalityIndex(ctx context.Context, p *Problem, tight bool) (*LocalityIndex, error) {
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

	var tightDst *bipartite.Rows
	if tight {
		tightDst = &b.tight
	}
	err := ix.buildTier(ctx, &b.byTask, tightDst, maxEdges, func(b *indexBuf, t int) {
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
	ix.edges = len(b.byTask.Edges)
	ix.unsorted = tight

	if err := ix.buildRackTier(ctx); err != nil {
		ix.Release()
		return nil, err
	}
	return ix, nil
}

// transpose builds the per-process view from the task rows with a counting
// sort. Tasks are visited in ascending order, so byProc stays Task-ascending
// without a comparison sort.
func (ix *LocalityIndex) transpose() {
	b, m := ix.buf, ix.p.NumProcs()
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
	ix.procBuilt = true
}

// Release returns the index's storage (and with it every edge slice ever
// returned by taskEdges/ProcEdges/TaskRackEdges) to the package pool for
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

// taskEdges returns task t's locality edges in ascending process order. The
// slice is a read-only view owned by the index.
func (ix *LocalityIndex) taskEdges(t int) []LocalityEdge {
	rows, _ := ix.taskRows(context.Background())
	return rows.Row(t)
}

// taskRows returns the task rows, every row Proc-ascending. A tight build
// leaves them in touch order; the first call sorts them, polling ctx once
// per indexCtxStride rows. On a ctx error the rows stay marked unsorted
// (sorting is idempotent, so a later call finishes the job).
func (ix *LocalityIndex) taskRows(ctx context.Context) (*bipartite.Rows, error) {
	rows := &ix.buf.byTask
	if !ix.unsorted {
		return rows, nil
	}
	for t := 0; t < len(rows.Off)-1; t++ {
		if t%indexCtxStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		slices.SortFunc(rows.Row(t), byProc)
	}
	ix.unsorted = false
	if testHookTaskRowSort != nil {
		testHookTaskRowSort()
	}
	return rows, nil
}

// testHookTaskRowSort, when set, runs each time taskRows sorts an index's
// task rows.
var testHookTaskRowSort func()

// byProc orders edges by process.
func byProc(a, b LocalityEdge) int { return a.Proc - b.Proc }

// ownedMB returns task t's co-located MB on proc, the value CoLocatedMB
// returns, by one scan of the task's row, sorted or not (a row is a few
// edges: inputs × replicas × processes per node).
func (ix *LocalityIndex) ownedMB(t, proc int) float64 {
	for _, e := range ix.buf.byTask.Row(t) {
		if e.Proc == proc {
			return e.MB
		}
	}
	return 0
}

// ProcEdges returns process p's locality edges in ascending task order, a
// view owned by the index; only MultiData, on its own index, reorders it.
// The first call builds the view for every process.
func (ix *LocalityIndex) ProcEdges(p int) []LocalityEdge { return ix.procRows().Row(p) }

// procRows returns the process rows, building them on the first call.
func (ix *LocalityIndex) procRows() *bipartite.Rows {
	if !ix.procBuilt {
		ix.transpose()
	}
	return &ix.buf.byProc
}

// CoLocatedMB returns the co-located megabytes for (proc, task) by binary
// search — the same value Problem.CoLocatedMB computes by probing, in
// O(log degree) instead of O(inputs·replicas).
func (ix *LocalityIndex) CoLocatedMB(proc, task int) float64 {
	return mbOf(ix.taskEdges(task), proc)
}

// mbOf looks proc up in a Proc-ascending edge row; zero when absent.
func mbOf(es []LocalityEdge, proc int) float64 {
	i := sort.Search(len(es), func(k int) bool { return es[k].Proc >= proc })
	if i < len(es) && es[i].Proc == proc {
		return es[i].MB
	}
	return 0
}
