// Package mpi is a small MPI-flavored runtime over the simulated cluster:
// each rank is a goroutine, and blocking operations — Send, Recv, Barrier,
// chunk reads, compute — advance a shared virtual clock instead of wall
// time. It lets the repository express the paper's applications the way
// they are actually written (MPICH programs with barriers and master/worker
// message loops) while every byte still moves through the same contended
// disk and NIC model as the execution engine.
//
// The scheduler is conservative: virtual time only advances when every rank
// is blocked, so results are deterministic regardless of goroutine
// scheduling (pending operations are matched in rank order once the world
// is quiescent).
package mpi

import (
	"fmt"
	"sort"
	"sync"

	"opass/internal/cluster"
	"opass/internal/dfs"
	"opass/internal/simnet"
)

// AnySource matches a Recv against the lowest-ranked pending sender.
const AnySource = -1

// World owns the ranks and the virtual clock.
type World struct {
	topo     *cluster.Topology
	fs       *dfs.FileSystem
	rankNode []int

	mu       sync.Mutex
	quiesced *sync.Cond
	running  int
	alive    int

	seq      int
	sends    []*sendReq
	recvs    []*recvReq
	barrier  []*waiter
	wakeups  map[simnet.FlowID][]*waiter
	readRecs []ReadRecord
	err      error
}

// ReadRecord logs one chunk read issued through a rank.
type ReadRecord struct {
	Rank    int
	Chunk   dfs.ChunkID
	SrcNode int
	Local   bool
	SizeMB  float64
	Start   float64
	End     float64
}

type waiter struct {
	rank    int
	seq     int
	payload float64      // delivered at wake-up (message value, size, or 0)
	ch      chan float64 // wake-up channel; closed on world failure
}

type sendReq struct {
	*waiter
	dst, tag int
	sizeMB   float64
	value    float64
}

type recvReq struct {
	*waiter
	src, tag int
}

// NewWorld builds a world with one rank per entry of rankNode (rank i runs
// on node rankNode[i]).
func NewWorld(topo *cluster.Topology, fs *dfs.FileSystem, rankNode []int) *World {
	if topo == nil || len(rankNode) == 0 {
		panic("mpi: world requires a topology and at least one rank")
	}
	for _, n := range rankNode {
		if n < 0 || n >= topo.NumNodes() {
			panic(fmt.Sprintf("mpi: rank on invalid node %d", n))
		}
	}
	w := &World{
		topo:     topo,
		fs:       fs,
		rankNode: append([]int(nil), rankNode...),
		wakeups:  map[simnet.FlowID][]*waiter{},
	}
	w.quiesced = sync.NewCond(&w.mu)
	return w
}

// Size reports the number of ranks.
func (w *World) Size() int { return len(w.rankNode) }

// Reads returns the chunk reads recorded during Run, in completion order.
func (w *World) Reads() []ReadRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]ReadRecord(nil), w.readRecs...)
}

// Rank is the handle a program uses inside its rank goroutine.
type Rank struct {
	w  *World
	id int
}

// ID reports the rank number.
func (r *Rank) ID() int { return r.id }

// Node reports the cluster node the rank runs on.
func (r *Rank) Node() int { return r.w.rankNode[r.id] }

// Size reports the world size.
func (r *Rank) Size() int { return r.w.Size() }

// Now reports the current virtual time. (Safe to call while running.)
func (r *Rank) Now() float64 {
	r.w.mu.Lock()
	defer r.w.mu.Unlock()
	return r.w.topo.Net().Now()
}

// Run executes program once per rank and drives the virtual clock until
// every rank returns. It returns the final virtual time.
func (w *World) Run(program func(r *Rank)) (float64, error) {
	net := w.topo.Net()
	if net.Active() != 0 {
		return 0, fmt.Errorf("mpi: network busy at world start")
	}
	net.OnComplete(w.onCompleteLocked)
	defer net.OnComplete(nil)

	w.mu.Lock()
	w.alive = len(w.rankNode)
	w.running = len(w.rankNode)
	w.mu.Unlock()

	var panics sync.Map
	var wg sync.WaitGroup
	for i := range w.rankNode {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics.Store(id, p)
				}
				w.mu.Lock()
				w.alive--
				w.running--
				w.quiesced.Broadcast()
				w.mu.Unlock()
			}()
			program(&Rank{w: w, id: id})
		}(i)
	}

	// Driver: whenever the world quiesces, first match communications, then
	// advance the clock.
	w.mu.Lock()
	for w.alive > 0 {
		for w.running > 0 {
			w.quiesced.Wait()
		}
		if w.alive == 0 {
			break
		}
		if w.matchLocked() {
			continue // matching woke ranks or started flows
		}
		if net.Active() > 0 {
			// Advance to the next event with the lock held: a rank woken by
			// a completion mid-step must not reach net.Start (which it
			// calls under w.mu) while Step is still mutating the network.
			net.Step()
			continue
		}
		w.err = fmt.Errorf("mpi: deadlock — %d ranks blocked with no pending events", w.alive)
		// Unblock everyone (their blocking calls panic) and wait for the
		// rank goroutines to unwind.
		w.failAllLocked()
		for w.alive > 0 {
			w.quiesced.Wait()
		}
		break
	}
	err := w.err
	w.mu.Unlock()
	wg.Wait()
	if p, ok := firstPanic(&panics, len(w.rankNode)); ok {
		if perr, isErr := p.(error); isErr && err == nil {
			err = perr
		} else if err == nil {
			err = fmt.Errorf("mpi: rank panic: %v", p)
		}
	}
	return net.Now(), err
}

func firstPanic(m *sync.Map, ranks int) (any, bool) {
	for i := 0; i < ranks; i++ {
		if p, ok := m.Load(i); ok {
			return p, true
		}
	}
	return nil, false
}

// failAllLocked wakes every parked waiter with a deadlock signal; their
// blocking calls panic, unwinding the rank goroutines.
func (w *World) failAllLocked() {
	for _, s := range w.sends {
		close(s.ch)
	}
	w.sends = nil
	for _, r := range w.recvs {
		close(r.ch)
	}
	w.recvs = nil
	for _, b := range w.barrier {
		close(b.ch)
	}
	w.barrier = nil
	for _, ws := range w.wakeups {
		for _, wt := range ws {
			close(wt.ch)
		}
	}
	w.wakeups = map[simnet.FlowID][]*waiter{}
}

// matchLocked pairs pending sends/recvs and releases full barriers. It
// reports whether it made progress.
func (w *World) matchLocked() bool {
	progress := false
	// Barrier: all live ranks present?
	if len(w.barrier) > 0 && len(w.barrier) == w.alive {
		for _, b := range w.barrier {
			b.ch <- 0
		}
		w.barrier = nil
		w.running += w.alive
		return true
	}
	// Deterministic matching order.
	sort.Slice(w.recvs, func(i, j int) bool { return w.recvs[i].seq < w.recvs[j].seq })
	sort.Slice(w.sends, func(i, j int) bool { return w.sends[i].seq < w.sends[j].seq })
	for ri := 0; ri < len(w.recvs); {
		rv := w.recvs[ri]
		matched := -1
		for si, sd := range w.sends {
			if sd.dst != rv.rank {
				continue
			}
			if rv.src != AnySource && rv.src != sd.rank {
				continue
			}
			if rv.tag != sd.tag {
				continue
			}
			matched = si
			break
		}
		if matched < 0 {
			ri++
			continue
		}
		sd := w.sends[matched]
		w.sends = append(w.sends[:matched], w.sends[matched+1:]...)
		w.recvs = append(w.recvs[:ri], w.recvs[ri+1:]...)
		w.startMessageLocked(sd, rv)
		progress = true
	}
	return progress
}

// startMessageLocked launches the matched transfer as a flow; both the
// sender and receiver wake when it completes.
func (w *World) startMessageLocked(sd *sendReq, rv *recvReq) {
	net := w.topo.Net()
	srcNode := w.rankNode[sd.rank]
	dstNode := w.rankNode[rv.rank]
	var id simnet.FlowID
	if sd.sizeMB <= 0 || srcNode == dstNode {
		// Control message or same-node transfer: latency only.
		id = net.Start(nil, 0, 1e-6, fmt.Sprintf("msg %d->%d", sd.rank, rv.rank))
	} else {
		path := []simnet.ResourceID{} // NIC-only: tx at source, rx at dest
		path = append(path, w.topo.RemoteReadPath(srcNode, dstNode)[1:]...)
		id = net.Start(path, sd.sizeMB, 1e-4, fmt.Sprintf("msg %d->%d", sd.rank, rv.rank))
	}
	sd.waiter.payload = sd.sizeMB
	rv.waiter.payload = sd.value
	w.wakeups[id] = append(w.wakeups[id], sd.waiter, rv.waiter)
}

// onCompleteLocked wakes the waiters parked on a finished flow. The network
// calls it from inside Step, which the driver runs under w.mu.
func (w *World) onCompleteLocked(_ float64, f *simnet.Flow) {
	ws := w.wakeups[f.ID]
	delete(w.wakeups, f.ID)
	for _, wt := range ws {
		w.running++
		wt.ch <- wt.payload
	}
}

// park blocks the calling rank until woken, returning the payload. It
// panics if the world declared a deadlock (channel closed).
func (w *World) park(wt *waiter) float64 {
	w.mu.Lock()
	w.running--
	if w.running == 0 {
		w.quiesced.Broadcast()
	}
	w.mu.Unlock()
	v, ok := <-wt.ch
	if !ok {
		panic(fmt.Errorf("mpi: rank %d aborted: %v", wt.rank, "world deadlock"))
	}
	return v
}

func (w *World) newWaiter(rank int) *waiter {
	w.seq++
	return &waiter{rank: rank, seq: w.seq, ch: make(chan float64, 1)}
}

// Send transmits sizeMB of data to rank dst with a tag, blocking until the
// transfer completes (rendezvous semantics). value is an opaque scalar
// delivered to the receiver alongside the data — the envelope that a real
// MPI program would pack into the buffer (task IDs, rank numbers, ...).
func (r *Rank) Send(dst, tag int, sizeMB, value float64) {
	if dst < 0 || dst >= r.w.Size() || dst == r.id {
		panic(fmt.Sprintf("mpi: rank %d sending to invalid rank %d", r.id, dst))
	}
	w := r.w
	w.mu.Lock()
	wt := w.newWaiter(r.id)
	w.sends = append(w.sends, &sendReq{waiter: wt, dst: dst, tag: tag, sizeMB: sizeMB, value: value})
	w.mu.Unlock()
	w.park(wt)
}

// Recv blocks until a matching message (from src, or AnySource) arrives and
// returns the sender's value scalar.
func (r *Rank) Recv(src, tag int) float64 {
	w := r.w
	w.mu.Lock()
	wt := w.newWaiter(r.id)
	w.recvs = append(w.recvs, &recvReq{waiter: wt, src: src, tag: tag})
	w.mu.Unlock()
	return w.park(wt)
}

// Barrier blocks until every live rank has entered the barrier.
func (r *Rank) Barrier() {
	w := r.w
	w.mu.Lock()
	wt := w.newWaiter(r.id)
	w.barrier = append(w.barrier, wt)
	w.mu.Unlock()
	w.park(wt)
}

// Compute burns the given seconds of virtual time.
func (r *Rank) Compute(seconds float64) {
	if seconds <= 0 {
		return
	}
	w := r.w
	w.mu.Lock()
	wt := w.newWaiter(r.id)
	id := w.topo.Net().Start(nil, 0, seconds, fmt.Sprintf("rank%d/compute", r.id))
	w.wakeups[id] = append(w.wakeups[id], wt)
	w.mu.Unlock()
	w.park(wt)
}

// ReadChunk reads a chunk from the file system with the HDFS replica
// policy, blocking for the simulated I/O time and recording the read.
func (r *Rank) ReadChunk(id dfs.ChunkID) {
	w := r.w
	if w.fs == nil {
		panic("mpi: world has no file system")
	}
	c := w.fs.Chunk(id)
	w.mu.Lock()
	srcNode, local := w.fs.PickReplica(id, r.Node())
	path := w.topo.ReadPath(srcNode, r.Node())
	wt := w.newWaiter(r.id)
	start := w.topo.Net().Now()
	fid := w.topo.Net().Start(path, c.SizeMB, w.topo.ReadLatency(srcNode), fmt.Sprintf("rank%d/chunk%d", r.id, id))
	w.wakeups[fid] = append(w.wakeups[fid], wt)
	rec := ReadRecord{Rank: r.id, Chunk: id, SrcNode: srcNode, Local: local, SizeMB: c.SizeMB, Start: start}
	w.mu.Unlock()
	w.park(wt)
	rec.End = r.Now()
	w.mu.Lock()
	w.readRecs = append(w.readRecs, rec)
	w.mu.Unlock()
}
