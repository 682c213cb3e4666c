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

	// deleted marks a tombstoned chunk (its file was removed).
	deleted bool
	// target is this chunk's replication target — per-chunk metadata, as
	// HDFS keeps per-file replication factors, so layouts built with
	// AddReplica beyond the Config factor still repair to their real
	// redundancy after a crash. Set at creation, raised by AddReplica,
	// lowered by an explicit RemoveReplica (the setrep analogy).
	target int
	// epoch is the value of the file system's global placement epoch at the
	// last mutation that touched THIS chunk's replica set, so a mutation to
	// an unrelated file leaves it (and every fingerprint derived from it)
	// untouched. Fingerprints built from chunk epochs
	// (core.Problem.AppendCanonical) change exactly when one of the chunks
	// they read moved, which is what makes surgical plan-cache invalidation
	// sound. FileSystem.ChunkEpoch reads it.
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
	// read-only consumers (plan fingerprinting under an HTTP handler) may
	// observe it concurrently with an admin mutation on another goroutine.
	epoch atomic.Uint64
	// access is the per-chunk access accounting (nil until
	// EnableAccessStats) feeding the replication advisor.
	access *accessStats
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
		perNode: make(map[int][]ChunkID),
		dead:    make(map[int]bool),
	}
}

// Config returns the (defaulted) configuration.
func (fs *FileSystem) Config() Config { return fs.cfg }

// View returns the cluster view the file system was built over — node
// count and rack map. Rack-aware consumers (the replication advisor, the
// planners' NodeRack plumbing) read topology through it.
func (fs *FileSystem) View() ClusterView { return fs.view }

// Epoch is a monotonic placement-version counter: every operation that
// changes which replicas live where — or which nodes may host them — bumps
// it (writes, deletes, replica add/remove/move, node add/remove, the
// balancer). It is a coarse "anything changed" signal; callers that want
// surgical invalidation should consult the per-chunk epochs (ChunkEpoch)
// instead, which move only when that chunk's replica set does. It is safe to
// read concurrently with mutations on other goroutines.
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
	return fs.createFile(name, sizesMB, rows)
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
	return fs.createFile(name, sizesMB, replicas)
}

// createFile is the one place chunks come into being: it validates every
// replica row before mutating any state, so a bad row cannot leave a
// half-created file behind, then builds the file with one epoch bump.
// checkCreate has already passed name and sizesMB.
func (fs *FileSystem) createFile(name string, sizesMB []float64, replicas [][]int) (*File, error) {
	for i, row := range replicas {
		if len(row) == 0 {
			return nil, fmt.Errorf("dfs: create %q: chunk %d has no replicas", name, i)
		}
		for j, node := range row {
			if node < 0 || node >= fs.view.NumNodes() || fs.dead[node] {
				return nil, fmt.Errorf("dfs: create %q: chunk %d replica node %d not live", name, i, node)
			}
			if slices.Contains(row[:j], node) {
				return nil, fmt.Errorf("dfs: create %q: chunk %d duplicate replica node %d", name, i, node)
			}
		}
	}
	f := &File{Name: name}
	f.Chunks = make([]ChunkID, 0, len(sizesMB))
	// One backing array for all chunk structs: the namenode metadata of a
	// 1M-chunk layout is one allocation, not a million.
	block := make([]Chunk, len(sizesMB))
	for i, s := range sizesMB {
		c := &block[i]
		c.ID = ChunkID(len(fs.chunks))
		c.File = name
		c.Index = i
		c.SizeMB = s
		c.Replicas = make([]int, 0, len(replicas[i]))
		for _, node := range replicas[i] {
			fs.attach(c, node)
		}
		c.target = len(c.Replicas)
		fs.chunks = append(fs.chunks, c)
		f.Chunks = append(f.Chunks, c.ID)
		f.SizeMB += s
	}
	fs.files[name] = f
	fs.order = append(fs.order, name)
	fs.bumpEpoch(f.Chunks...)
	return f, nil
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

// Chunk returns the chunk with the given ID. It panics on IDs of deleted
// files, so stale references surface immediately.
func (fs *FileSystem) Chunk(id ChunkID) *Chunk {
	if int(id) < 0 || int(id) >= len(fs.chunks) {
		panic(fmt.Sprintf("dfs: chunk %d out of range", id))
	}
	c := fs.chunks[int(id)]
	if c.deleted {
		panic(fmt.Sprintf("dfs: chunk %d belongs to the deleted file %q", id, c.File))
	}
	return c
}

// NumChunks reports the total chunk count across all files.
func (fs *FileSystem) NumChunks() int { return len(fs.chunks) }

// Replicas, ChunkEpoch and ChunkSizeMB are the read-only placement view the
// planners consume (core.Placement): Chunk(id)'s replica list, placement
// epoch and size. Like Chunk they panic on an unknown or deleted id, and the
// replica slice is the ledger's own — callers must not write to it.
func (fs *FileSystem) Replicas(id ChunkID) []int      { return fs.Chunk(id).Replicas }
func (fs *FileSystem) ChunkEpoch(id ChunkID) uint64   { return fs.Chunk(id).epoch }
func (fs *FileSystem) ChunkSizeMB(id ChunkID) float64 { return fs.Chunk(id).SizeMB }

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
	candidates := fs.Chunk(id).Replicas
	if avoid != nil {
		kept := make([]int, 0, len(candidates))
		for _, r := range candidates {
			if !avoid(r) {
				kept = append(kept, r)
			}
		}
		candidates = kept
	}
	if len(candidates) == 0 {
		return -1, false, fmt.Errorf("%w: chunk %d", ErrNoReplica, id)
	}
	if slices.Contains(candidates, reader) {
		return reader, true, nil
	}
	if reader >= 0 && reader < fs.view.NumNodes() {
		rack := fs.view.RackOf(reader)
		if sameRack := filter(candidates, func(r int) bool { return fs.view.RackOf(r) == rack }); len(sameRack) > 0 {
			candidates = sameRack
		}
	}
	h := splitmix(uint64(fs.cfg.Seed)<<32 ^ uint64(id)<<16 ^ uint64(uint32(reader)) ^ salt<<48)
	return candidates[int(h%uint64(len(candidates)))], false, nil
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
