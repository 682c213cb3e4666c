// Package dfs implements an in-process distributed file system with the
// metadata semantics of HDFS, which is the substrate the Opass paper runs
// on. It models the pieces Opass interacts with:
//
//   - a namenode-style namespace mapping files to fixed-size chunks;
//   - r-way replication with pluggable placement policies (random by
//     default, as HDFS behaves from the perspective of a non-writing
//     client, plus rack-aware and pathological policies for experiments);
//   - the GetFileBlockLocations metadata query Opass uses to build its
//     bipartite locality graph;
//   - the HDFS client read policy: serve from the local disk when a replica
//     is co-located with the reader, otherwise from a uniformly random
//     replica holder;
//   - node addition, crashes with re-replication, and a balancer — the
//     events the paper cites as sources of placement skew.
//
// Data contents are never materialized; chunks carry sizes only, which is
// all the scheduling and simulation layers need.
package dfs

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
)

// ChunkID identifies a chunk within a FileSystem.
type ChunkID int

// Chunk is one replicated block of a file.
type Chunk struct {
	ID       ChunkID
	File     string
	Index    int     // position within the file
	SizeMB   float64 // chunk payload size
	Replicas []int   // distinct node IDs hosting a copy

	// target is this chunk's replication target — per-chunk metadata, as
	// HDFS keeps per-file replication factors, so layouts built with
	// AddReplica beyond the Config factor still repair to their real
	// redundancy after a crash. Set at creation, raised by AddReplica,
	// lowered by an explicit RemoveReplica (the setrep analogy).
	target int
	// epoch is the value of the file system's global placement epoch at the
	// last mutation that touched THIS chunk's replica set or target, so a
	// mutation to an unrelated file leaves it untouched. A caller that
	// remembered Epoch() at time T finds the chunks that moved since as those
	// whose epoch exceeds it (the engine's delta replan).
	// FileSystem.ChunkEpoch reads it.
	epoch uint64
}

// ReplicationTarget returns the chunk's replication target: how many
// replicas Crash considers healthy and ReReplicate restores.
func (c *Chunk) ReplicationTarget() int { return c.target }

// HostedOn reports whether the chunk has a replica on node.
func (c *Chunk) HostedOn(node int) bool { return slices.Contains(c.Replicas, node) }

// File is a named sequence of chunks.
type File struct {
	Name   string
	SizeMB float64
	Chunks []ChunkID
}

// Config carries file system parameters; zero fields take HDFS defaults.
type Config struct {
	ChunkSizeMB float64   // default 64, as in the paper
	Replication int       // default 3
	Placement   Placement // default RandomPlacement
	Seed        int64     // seed for placement and replica-pick randomness
}

func (c Config) withDefaults() Config {
	if c.ChunkSizeMB == 0 {
		c.ChunkSizeMB = 64
	}
	if c.Replication == 0 {
		c.Replication = 3
	}
	if c.Placement == nil {
		c.Placement = RandomPlacement{}
	}
	return c
}

// ClusterView is the slice of cluster topology the file system needs:
// enough to enumerate live nodes and to group them into racks.
type ClusterView interface {
	NumNodes() int
	RackOf(node int) int
}

// FileSystem is the namenode state plus per-node chunk indexes.
type FileSystem struct {
	cfg     Config
	view    ClusterView
	rng     *rand.Rand
	files   map[string]*File
	order   []string // deterministic file iteration order
	chunks  []*Chunk
	perNode map[int][]ChunkID // node -> hosted chunks
	dead    map[int]bool      // crashed or not-yet-added nodes
	// epoch is bumped on every placement mutation. It is atomic because
	// Epoch promises a monotonic read from any goroutine, including one
	// polling for placement changes while an admin mutation runs elsewhere.
	epoch atomic.Uint64
	// access is the per-chunk access accounting (nil until
	// EnableAccessStats) feeding the replication advisor.
	access *accessStats
	// store is the storage createFile carves new chunks from; Reset keeps it.
	store store
}

// store holds the arrays createFile carves a file's chunk structs, replica
// rows, chunk-ID list and per-node index rows from, plus its per-node count
// scratch. Each array is used from the front; Reset empties them, so a
// file system rebuilt in place reuses what its last life grew.
type store struct {
	chunks []Chunk
	rows   []int
	ids    []ChunkID
	index  []ChunkID
	hosted []int
}

// carve takes n elements off the front of spare's unused capacity, capped so
// an append cannot reach past them. When they do not fit it returns a fresh
// array, which spare adopts if it is larger than the one it holds: a store
// keeps its largest array, not its last. Contents may be stale.
func carve[T any](spare *[]T, n int) []T {
	s := *spare
	if cap(s)-len(s) < n {
		fresh := make([]T, n)
		if n > cap(s) {
			*spare = fresh
		}
		return fresh
	}
	*spare = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// New creates an empty FileSystem over the given cluster view.
func New(view ClusterView, cfg Config) *FileSystem {
	cfg = cfg.withDefaults()
	if cfg.Replication < 1 {
		panic(fmt.Sprintf("dfs: replication %d must be >= 1", cfg.Replication))
	}
	if cfg.ChunkSizeMB <= 0 {
		panic(fmt.Sprintf("dfs: chunk size %v must be positive", cfg.ChunkSizeMB))
	}
	return &FileSystem{
		cfg:     cfg,
		view:    view,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		files:   make(map[string]*File),
		perNode: make(map[int][]ChunkID, view.NumNodes()),
		dead:    make(map[int]bool),
	}
}

// Reset empties the file system for reuse over its view, whose node count
// may have changed since. To every reader it is then the file system New
// returns for that view and configuration: no files or chunks, every node
// live, epoch 0, no access accounting, and the RNG re-seeded with Seed,
// which restarts the stream NewSource(Seed) gives. It keeps the storage new
// files are carved from. Chunks, files and rows read before are invalid.
func (fs *FileSystem) Reset() {
	fs.rng.Seed(fs.cfg.Seed)
	clear(fs.files)
	clear(fs.order)
	fs.order = fs.order[:0]
	clear(fs.chunks)
	fs.chunks = fs.chunks[:0]
	clear(fs.perNode)
	clear(fs.dead)
	fs.epoch.Store(0)
	fs.access = nil
	st := &fs.store
	st.chunks, st.rows, st.ids, st.index = st.chunks[:0], st.rows[:0], st.ids[:0], st.index[:0]
}

// Config returns the (defaulted) configuration.
func (fs *FileSystem) Config() Config { return fs.cfg }

// View returns the cluster view the file system was built over — node
// count and rack map. Rack-aware consumers (the replication advisor, the
// planners' NodeRack plumbing) read topology through it.
func (fs *FileSystem) View() ClusterView { return fs.view }

// Epoch is a monotonic placement-version counter: every operation that
// changes which replicas live where — or which nodes may host them — bumps
// it (writes, replica add/remove/move, node add/remove, the balancer) and
// stamps the chunks it touched with the new value, so a chunk was touched
// after Epoch() returned e exactly when its ChunkEpoch exceeds e. It is safe
// to read concurrently with mutations on other goroutines.
func (fs *FileSystem) Epoch() uint64 { return fs.epoch.Load() }

// bumpEpoch records one placement mutation: the global counter advances
// and every affected chunk is stamped with the new value. Mutating entry
// points call it exactly once
// per successful operation (compound operations such as MoveReplica may
// bump more than once through their primitives — only monotonicity matters,
// not the step size).
func (fs *FileSystem) bumpEpoch(affected ...ChunkID) {
	e := fs.epoch.Add(1)
	for _, id := range affected {
		fs.chunks[int(id)].epoch = e
	}
}

// Errors returned by namespace operations.
var (
	ErrExists   = errors.New("dfs: file already exists")
	ErrNotFound = errors.New("dfs: file not found")
)

// LiveNodes lists the nodes that can currently host replicas, in ascending
// ID order. After node removal the live IDs are not contiguous, so callers
// iterating per-node state must range over this slice rather than counting
// 0..len(LiveNodes()).
func (fs *FileSystem) LiveNodes() []int {
	nodes := make([]int, 0, fs.view.NumNodes())
	for i := 0; i < fs.view.NumNodes(); i++ {
		if !fs.dead[i] {
			nodes = append(nodes, i)
		}
	}
	return nodes
}

// attach, detach and dropNode are the only writers of a chunk's replica
// list and of the per-node index, which keeps the invariant Fsck checks:
// c.Replicas is sorted and distinct, and node's index lists c exactly when
// c.Replicas lists node. attach appends to the index and detach filters it
// in place, so a node's index keeps the order its replicas arrived in — the
// order the balancer's tie-break and ReReplicate's RNG draws follow.
// Callers check liveness and membership first and own the policy: the
// chunk's target and which chunks get the epoch stamp.
func (fs *FileSystem) attach(c *Chunk, node int) {
	c.Replicas = append(c.Replicas, node)
	for i := len(c.Replicas) - 1; i > 0 && c.Replicas[i-1] > node; i-- {
		c.Replicas[i-1], c.Replicas[i] = node, c.Replicas[i-1]
	}
	fs.perNode[node] = append(fs.perNode[node], c.ID)
}

func (fs *FileSystem) detach(c *Chunk, node int) {
	c.Replicas = without(c.Replicas, node)
	fs.perNode[node] = without(fs.perNode[node], c.ID)
}

// without filters v out of xs in place, keeping the order of the rest.
func without[T comparable](xs []T, v T) []T {
	return slices.DeleteFunc(xs, func(x T) bool { return x == v })
}

// dropNode marks node dead and takes its replica off every chunk it
// hosted, returning those chunks in the node's index order. The index
// entry goes whole, which is why this is not a loop over detach.
func (fs *FileSystem) dropNode(node int) []ChunkID {
	hosted := fs.perNode[node]
	delete(fs.perNode, node)
	fs.dead[node] = true
	for _, id := range hosted {
		c := fs.chunks[int(id)]
		c.Replicas = without(c.Replicas, node)
	}
	return hosted
}

// nameFree reports ErrExists when name is already a file.
func (fs *FileSystem) nameFree(name string) error {
	if _, ok := fs.files[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	return nil
}

// Create writes a file of sizeMB, splitting it into chunks of the
// configured chunk size (the final chunk may be smaller) and placing each
// chunk's replicas with the placement policy.
func (fs *FileSystem) Create(name string, sizeMB float64) (*File, error) {
	if sizeMB <= 0 {
		return nil, fmt.Errorf("dfs: create %q: size %v must be positive", name, sizeMB)
	}
	var sizes []float64
	for left := sizeMB; left > 1e-9; left -= fs.cfg.ChunkSizeMB {
		s := fs.cfg.ChunkSizeMB
		if left < s {
			s = left
		}
		sizes = append(sizes, s)
	}
	return fs.CreateChunks(name, sizes)
}

// checkCreate rejects a create that no placement could make succeed: a
// taken name, no chunks, a non-positive size.
func (fs *FileSystem) checkCreate(name string, sizesMB []float64) error {
	if err := fs.nameFree(name); err != nil {
		return err
	}
	if len(sizesMB) == 0 {
		return fmt.Errorf("dfs: create %q: no chunks", name)
	}
	for i, s := range sizesMB {
		if s <= 0 {
			return fmt.Errorf("dfs: create %q: chunk %d size %v must be positive", name, i, s)
		}
	}
	return nil
}

// CreateChunks writes a file from explicit chunk sizes, placing each
// chunk's replicas with the placement policy. It is the primitive behind
// Create and is used directly by workloads whose logical pieces do not
// align with the chunk size (e.g. the 56 MB ParaView blocks). A failed
// create writes nothing and, unless the policy itself returned a bad row,
// draws nothing from the RNG.
func (fs *FileSystem) CreateChunks(name string, sizesMB []float64) (*File, error) {
	if err := fs.checkCreate(name, sizesMB); err != nil {
		return nil, err
	}
	live := fs.LiveNodes()
	r := fs.cfg.Replication
	if r > len(live) {
		return nil, fmt.Errorf("dfs: create %q: replication %d exceeds %d live nodes", name, r, len(live))
	}
	rows := make([][]int, len(sizesMB))
	// What a policy may read of the chunk it places; the chunk itself is
	// built only once every row has passed validation.
	next := Chunk{File: name}
	for i, s := range sizesMB {
		next.ID, next.Index, next.SizeMB = ChunkID(len(fs.chunks)+i), i, s
		rows[i] = fs.cfg.Placement.Place(fs.rng, fs.view, live, r, &next)
		if len(rows[i]) != r {
			return nil, fmt.Errorf("dfs: create %q: placement returned %d replicas for chunk %d, want %d", name, len(rows[i]), i, r)
		}
	}
	return fs.createFile(name, chunkRows(sizesMB, rows))
}

// ChunkSource hands a bulk create its chunks: it calls each once per chunk,
// in order, with the chunk's size and replica row. The create reads the row
// and keeps none of it, and may call the source more than once.
type ChunkSource func(each func(sizeMB float64, replicas []int))

// chunkRows is the ChunkSource over parallel size and replica slices.
func chunkRows(sizesMB []float64, replicas [][]int) ChunkSource {
	return func(each func(float64, []int)) {
		for i, s := range sizesMB {
			each(s, replicas[i])
		}
	}
}

// CreateChunksReplicated writes a file from explicit per-chunk sizes AND
// explicit per-chunk replica lists, bypassing the placement policy and the
// Config replication factor: chunk i is hosted exactly on replicas[i]
// (sorted copy; the list may be any positive length). It is the bulk
// primitive behind /v1/simulate, which mirrors a submitted layout into one
// file with one allocation per chunk and a single epoch bump — every chunk
// at epoch 1 in a fresh store — instead of a file, a path string, and an
// epoch per input. Replica lists are validated against live nodes; a
// duplicate or dead node fails the whole create with nothing written.
func (fs *FileSystem) CreateChunksReplicated(name string, sizesMB []float64, replicas [][]int) (*File, error) {
	if err := fs.checkCreate(name, sizesMB); err != nil {
		return nil, err
	}
	if len(replicas) != len(sizesMB) {
		return nil, fmt.Errorf("dfs: create %q: %d replica lists for %d chunks", name, len(replicas), len(sizesMB))
	}
	return fs.createFile(name, chunkRows(sizesMB, replicas))
}

// CreateChunksFrom is CreateChunksReplicated over a ChunkSource: a caller
// whose layout is already in memory (/v1/simulate's decoded request) hands
// its rows over without first copying them into two slices.
func (fs *FileSystem) CreateChunksFrom(name string, chunks ChunkSource) (*File, error) {
	if err := fs.nameFree(name); err != nil {
		return nil, err
	}
	return fs.createFile(name, chunks)
}

// createFile is the one place chunks come into being: it validates every
// chunk before mutating any state, so a bad row cannot leave a half-created
// file behind, then builds the file with one epoch bump. The name is free.
func (fs *FileSystem) createFile(name string, chunks ChunkSource) (*File, error) {
	st, nodes := &fs.store, fs.view.NumNodes()
	hosted := slices.Grow(st.hosted[:0], nodes)[:nodes] // chunks per node
	st.hosted = hosted
	clear(hosted)
	var err error
	n, reps := 0, 0
	chunks(func(s float64, row []int) {
		if err == nil {
			err = fs.checkChunk(name, n, s, row, hosted)
		}
		n, reps = n+1, reps+len(row)
	})
	if err == nil && n == 0 {
		err = fmt.Errorf("dfs: create %q: no chunks", name)
	}
	if err != nil {
		return nil, err
	}
	// The chunk structs, their replica rows, the file's chunk list and the
	// hosting nodes' index rows are carved from the store: the namenode
	// metadata of a 1M-chunk layout is a few allocations, not millions, and
	// none once a reset store has grown to it. A replica row is exactly its
	// chunk's replica count, which a repair never exceeds; an index row keeps
	// headroom, so a repair attaching to its node stays in place.
	total := 0
	for node, k := range hosted {
		if k > 0 {
			total += indexCap(len(fs.perNode[node])+k, fs.cfg.Replication)
		}
	}
	index := carve(&st.index, total)
	for node, k := range hosted {
		if k > 0 {
			old := fs.perNode[node]
			c := indexCap(len(old)+k, fs.cfg.Replication)
			fs.perNode[node] = append(index[:0:c], old...)
			index = index[c:]
		}
	}
	block, rows := carve(&st.chunks, n), carve(&st.rows, reps)
	f := &File{Name: name, Chunks: carve(&st.ids, n)[:0]}
	fs.chunks = slices.Grow(fs.chunks, n)
	chunks(func(s float64, row []int) {
		c := &block[len(f.Chunks)]
		*c = Chunk{ID: ChunkID(len(fs.chunks)), File: name, Index: len(f.Chunks), SizeMB: s}
		c.Replicas, rows = rows[:0:len(row)], rows[len(row):]
		for _, node := range row {
			fs.attach(c, node)
		}
		c.target = len(c.Replicas)
		fs.chunks = append(fs.chunks, c)
		f.Chunks = append(f.Chunks, c.ID)
		f.SizeMB += s
	})
	fs.files[name] = f
	fs.order = append(fs.order, name)
	fs.bumpEpoch(f.Chunks...)
	return f, nil
}

// checkChunk checks chunk i of a create — a positive size and a non-empty
// row of distinct live nodes — and counts the row's nodes on hosted.
func (fs *FileSystem) checkChunk(name string, i int, sizeMB float64, row, hosted []int) error {
	if sizeMB <= 0 {
		return fmt.Errorf("dfs: create %q: chunk %d size %v must be positive", name, i, sizeMB)
	}
	if len(row) == 0 {
		return fmt.Errorf("dfs: create %q: chunk %d has no replicas", name, i)
	}
	for j, node := range row {
		if node < 0 || node >= len(hosted) || fs.dead[node] {
			return fmt.Errorf("dfs: create %q: chunk %d replica node %d not live", name, i, node)
		}
		if slices.Contains(row[:j], node) {
			return fmt.Errorf("dfs: create %q: chunk %d duplicate replica node %d", name, i, node)
		}
		hosted[node]++
	}
	return nil
}

// indexCap is the capacity createFile gives a per-node index row of count
// entries: an eighth more, and at least the replication factor more.
func indexCap(count, replication int) int {
	return count + max(count/8, replication)
}

// Stat returns the file metadata for name.
func (fs *FileSystem) Stat(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return f, nil
}

// Files lists all file names in creation order.
func (fs *FileSystem) Files() []string {
	return append([]string(nil), fs.order...)
}

// Chunk returns the chunk with the given ID. It panics on an unknown ID.
func (fs *FileSystem) Chunk(id ChunkID) *Chunk {
	if int(id) < 0 || int(id) >= len(fs.chunks) {
		panic(fmt.Sprintf("dfs: chunk %d out of range", id))
	}
	return fs.chunks[int(id)]
}

// NumChunks reports the total chunk count across all files.
func (fs *FileSystem) NumChunks() int { return len(fs.chunks) }

// Replicas is the read-only placement view the planners consume
// (core.Placement): Chunk(id)'s replica list, the ledger's own slice —
// callers must not write to it. ChunkEpoch is the epoch of the last mutation
// that touched the chunk. Like Chunk they panic on an unknown id.
func (fs *FileSystem) Replicas(id ChunkID) []int    { return fs.Chunk(id).Replicas }
func (fs *FileSystem) ChunkEpoch(id ChunkID) uint64 { return fs.Chunk(id).epoch }

// BlockLocation describes one chunk's placement, mirroring HDFS's
// getFileBlockLocations response.
type BlockLocation struct {
	Chunk    ChunkID
	SizeMB   float64
	Replicas []int
}

// BlockLocations returns the placement of every chunk of a file — the
// metadata query Opass issues to build its locality graph.
func (fs *FileSystem) BlockLocations(name string) ([]BlockLocation, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	locs := make([]BlockLocation, len(f.Chunks))
	for i, id := range f.Chunks {
		c := fs.chunks[int(id)]
		locs[i] = BlockLocation{
			Chunk:    id,
			SizeMB:   c.SizeMB,
			Replicas: append([]int(nil), c.Replicas...),
		}
	}
	return locs, nil
}

// HostedBy lists the chunks with a replica on node, in ID order.
func (fs *FileSystem) HostedBy(node int) []ChunkID {
	ids := append([]ChunkID(nil), fs.perNode[node]...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// StoredMB reports the bytes (in MB) of replicas stored on node.
func (fs *FileSystem) StoredMB(node int) float64 {
	var s float64
	for _, id := range fs.perNode[node] {
		s += fs.chunks[int(id)].SizeMB
	}
	return s
}

// ErrNoReplica reports that every replica of a chunk is unavailable.
var ErrNoReplica = errors.New("dfs: no live replica")

// PickReplicaAvoiding applies the HDFS client read policy for a reader on
// node reader, over the replica holders for which avoid returns false (nil
// avoids none; the engine passes its crashed-node set — the failover a
// client makes when a DataNode stops responding). Candidates narrow in
// network-distance order like the namenode's block-location sorting: a
// co-located replica first, then the replicas in the reader's rack, then
// all of them. Among equally-distant candidates the choice is drawn from a
// hash of (seed, chunk, reader, salt) rather than a shared random stream,
// so it is uniform across chunk/reader pairs — the 1/r assumption of
// §III-B — yet independent of call order, which keeps concurrent
// simulations (the MPI runtime's goroutine ranks) bit-for-bit reproducible.
// The salt keeps successive retries of one (chunk, reader) pair from
// re-picking the same node. (On single-rack topologies the rack tier is the
// whole replica set, so the behavior matches the paper's single-switch
// testbed exactly.)
func (fs *FileSystem) PickReplicaAvoiding(id ChunkID, reader int, salt uint64, avoid func(node int) bool) (node int, local bool, err error) {
	replicas := fs.Chunk(id).Replicas
	usable := func(r int) bool { return avoid == nil || !avoid(r) }
	tier, k := usable, countWhere(replicas, usable)
	if k == 0 {
		return -1, false, fmt.Errorf("%w: chunk %d", ErrNoReplica, id)
	}
	if slices.Contains(replicas, reader) && usable(reader) {
		return reader, true, nil
	}
	if reader >= 0 && reader < fs.view.NumNodes() {
		rack := fs.view.RackOf(reader)
		sameRack := func(r int) bool { return usable(r) && fs.view.RackOf(r) == rack }
		if n := countWhere(replicas, sameRack); n > 0 {
			tier, k = sameRack, n
		}
	}
	h := splitmix(uint64(fs.cfg.Seed)<<32 ^ uint64(id)<<16 ^ uint64(uint32(reader)) ^ salt<<48)
	return nthWhere(replicas, tier, int(h%uint64(k))), false, nil
}

// splitmix is the splitmix64 finalizer, a cheap high-quality integer hash.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
