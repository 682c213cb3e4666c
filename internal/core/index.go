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
// There is one build, and order is something a reader asks for. The build
// leaves every row in the order its accumulation touched the processes; a
// lookup (CoLocatedMB, RackCoLocatedMB) scans a row in whatever order it is
// in. Only the two solvers whose tie-breaks read row order — the equal-size
// matcher and MultiExact's stage 2 — ask taskRows for Proc-ascending rows,
// and the first such read sorts them once. The process rows are a
// counting-sort transpose, made on the first ProcEdges call (only Algorithm
// 1 and the flow network read them); MultiExact's best-holder rows are cut
// from the task rows when its stage 1 asks (tightRows).
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
	rackTiered bool // the rack tier (rack.go) is built only for rack-tiered problems
	procBuilt  bool // byProc holds this index's transpose
	// sorted: taskRows has put byTask's rows Proc-ascending. It lives here,
	// not in the pooled indexBuf, so a fresh index reads as unsorted.
	sorted   bool
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
	byTask     bipartite.Rows // task -> edges, touch order until taskRows sorts them
	byProc     bipartite.Rows // proc -> edges, Task-ascending until MultiData consumes them; built by ProcEdges
	byTaskRack bipartite.Rows // task -> rack-tier edges, touch order
	tight      bipartite.Rows // task -> best-holder edges, Proc-ascending; built by tightRows
	pos        []int          // transpose write cursors, one per process

	// Accumulated MB per process for the current task, with an epoch stamp
	// so the arrays reset in O(touched) instead of O(m) per task. The epoch
	// survives pooling — it only ever increments. sortRow reuses mb and
	// touched once the build is done.
	mb      []float64
	stamp   []int
	epoch   int
	touched []int
	racks   []int // rack tier only: racks of the current input

	// The node -> process-ranks inversion of ProcNode the build walks
	// (groupRanksInto's out, flat and off).
	procsOn            [][]int
	procFlat, procsOff []int
}

var indexBufPool = sync.Pool{New: func() any { return new(indexBuf) }}

// groupRanks inverts key: group g of the result lists the ranks i with
// key[i] == g in ascending order, all carved from one array. Negative keys
// belong to no group, and an empty group is nil.
func groupRanks(key []int, groups int) [][]int {
	return groupRanksInto(make([][]int, groups), make([]int, len(key)), make([]int, groups+1), key)
}

// groupRanksInto is groupRanks over the caller's storage, whose contents may
// be stale: out holds the groups, flat one slot per key and off one more
// than there are groups.
func groupRanksInto(out [][]int, flat, off, key []int) [][]int {
	clear(off)
	for _, k := range key {
		if k >= 0 {
			off[k+1]++
		}
	}
	for g := range out {
		off[g+1] += off[g]
		out[g] = nil
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
// edges, in the order accumulate first touches their processes through
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
			dst.Edges = edges // freshly sized arrays still serve the next build
			return ctx.Err()
		}
		dst.Off[t] = len(edges)
		b.epoch++
		b.touched = b.touched[:0]
		accumulate(b, t)
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
	groups := maxNode + 1
	b.procsOn = slices.Grow(b.procsOn[:0], groups)[:groups]
	b.procFlat = slices.Grow(b.procFlat[:0], m)[:m]
	b.procsOff = slices.Grow(b.procsOff[:0], groups+1)[:groups+1]
	procsOn := groupRanksInto(b.procsOn, b.procFlat, b.procsOff, p.ProcNode)
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
	ix.edges = len(b.byTask.Edges)

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
// returned by ProcEdges/TaskRackEdges, taskRows or tightRows) to the package
// pool for the next build. It is optional and purely a performance lever: an
// index that is simply dropped is garbage-collected. The caller must be the
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
	indexBufPool.Put(ix.buf)
	ix.p, ix.buf = nil, nil
}

// NumEdges reports the number of locality edges (pairs with positive
// co-located data).
func (ix *LocalityIndex) NumEdges() int { return ix.edges }

// taskRows returns the task rows, every row Proc-ascending, for the solvers
// whose tie-breaks read row order. The build leaves them in touch order; the
// first call sorts them, polling ctx once per indexCtxStride rows. On a ctx
// error the rows stay marked unsorted (sorting is idempotent, so a later
// call finishes the job).
func (ix *LocalityIndex) taskRows(ctx context.Context) (*bipartite.Rows, error) {
	rows := &ix.buf.byTask
	if ix.sorted {
		return rows, nil
	}
	for t := 0; t < len(rows.Off)-1; t++ {
		if t%indexCtxStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		ix.buf.sortRow(rows.Row(t))
	}
	ix.sorted = true
	if testHookTaskRowSort != nil {
		testHookTaskRowSort()
	}
	return rows, nil
}

// testHookTaskRowSort, when set, runs each time taskRows sorts an index's
// task rows.
var testHookTaskRowSort func()

// sortRow puts one task's row in ascending process order. A row is
// usually a few edges (inputs × replicas × processes per node), which
// insertion sorts in place. A long one, from many processes per node, sorts
// its processes as ints with their MB parked in the mb scratch: insertion
// is quadratic there, and a comparator sort of the 24-byte edges costs
// about twice the int sort.
func (b *indexBuf) sortRow(row []LocalityEdge) {
	if len(row) <= 12 {
		for i := 1; i < len(row); i++ {
			for j := i; j > 0 && row[j].Proc < row[j-1].Proc; j-- {
				row[j], row[j-1] = row[j-1], row[j]
			}
		}
		return
	}
	b.touched = b.touched[:0]
	for _, e := range row {
		b.mb[e.Proc] = e.MB
		b.touched = append(b.touched, e.Proc)
	}
	sort.Ints(b.touched)
	for i, proc := range b.touched {
		row[i].Proc, row[i].MB = proc, b.mb[proc]
	}
}

// tightRows returns MultiExact's stage-1 rows — each task row cut to its
// best holders, the edges whose MB is the row maximum, Proc-ascending — and
// how many tasks have an edge. Each row is cut in one pass over the task
// row, in whatever order that is in.
func (ix *LocalityIndex) tightRows() (*bipartite.Rows, int) {
	b, n := ix.buf, len(ix.p.Tasks)
	tight := &b.tight
	tight.Off = slices.Grow(tight.Off[:0], n+1)[:n+1]
	best := slices.Grow(tight.Edges[:0], min(n, ix.edges))
	holders := 0
	for t := 0; t < n; t++ {
		lo := len(best)
		tight.Off[t] = lo
		top := 0.0 // every weight is positive
		for _, e := range b.byTask.Row(t) {
			switch {
			case e.MB > top:
				best, top = append(best[:lo], e), e.MB
			case e.MB == top:
				best = append(best, e)
			}
		}
		if len(best) > lo {
			holders++
			b.sortRow(best[lo:])
		}
	}
	tight.Off[n] = len(best)
	tight.Edges = best
	return tight, holders
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

// CoLocatedMB returns the co-located megabytes for (proc, task) — the same
// value Problem.CoLocatedMB computes by probing — by one scan of the task's
// row.
func (ix *LocalityIndex) CoLocatedMB(proc, task int) float64 {
	return rowMB(ix.buf.byTask.Row(task), proc)
}

// rowMB looks proc up in an edge row, in whatever order the row is in; zero
// when absent.
func rowMB(row []LocalityEdge, proc int) float64 {
	for _, e := range row {
		if e.Proc == proc {
			return e.MB
		}
	}
	return 0
}
