package dfs

import (
	"cmp"
	"fmt"
	"slices"
)

// This file implements the cluster-administration operations the paper
// identifies as the sources of unbalanced data distribution: "node addition
// or removal could cause an unbalanced redistribution of data" (§IV-B).
// They let the experiments construct exactly those skewed layouts and then
// measure how Opass's leftover-assignment repair behaves.

// AddNode registers a fresh (empty) node with the namenode. The node ID must
// be within the cluster view and not already live. Newly added nodes hold no
// replicas until the balancer runs — the skew scenario from the paper.
func (fs *FileSystem) AddNode(node int) error {
	if node < 0 || node >= fs.view.NumNodes() {
		return fmt.Errorf("dfs: add node %d: outside cluster view of %d nodes", node, fs.view.NumNodes())
	}
	if !fs.dead[node] {
		return fmt.Errorf("dfs: add node %d: already live", node)
	}
	delete(fs.dead, node)
	fs.bumpEpoch()
	return nil
}

// MarkDead pre-declares a node as not-yet-live so that datasets can be
// created before the node "joins". It fails if the node already hosts
// replicas (crash it instead).
func (fs *FileSystem) MarkDead(node int) error {
	if node < 0 || node >= fs.view.NumNodes() {
		return fmt.Errorf("dfs: mark dead %d: outside cluster view", node)
	}
	if len(fs.perNode[node]) > 0 {
		return fmt.Errorf("dfs: mark dead %d: node hosts %d replicas; use Crash", node, len(fs.perNode[node]))
	}
	fs.dead[node] = true
	fs.bumpEpoch()
	return nil
}

// Crash records an unplanned DataNode loss, as the namenode does when a
// datanode misses its heartbeats: the node is marked dead and every replica
// it hosted is dropped from the chunk metadata. Nothing is copied here —
// repair is a separate, slower pass (ReReplicate), and the window between
// the two is exactly what the engine's fault injection studies. It returns
// the chunks left under-replicated and the chunks that lost their last
// replica (unreadable until the node returns). Crashing an already-dead node
// is a no-op.
func (fs *FileSystem) Crash(node int) (underReplicated, lost []ChunkID, err error) {
	if node < 0 || node >= fs.view.NumNodes() {
		return nil, nil, fmt.Errorf("dfs: crash %d: outside cluster view of %d nodes", node, fs.view.NumNodes())
	}
	if fs.dead[node] {
		return nil, nil, nil
	}
	hosted := fs.dropNode(node)
	slices.Sort(hosted)
	for _, id := range hosted {
		c := fs.chunks[int(id)]
		switch {
		case len(c.Replicas) == 0:
			lost = append(lost, id)
		case len(c.Replicas) < c.target:
			underReplicated = append(underReplicated, id)
		}
	}
	fs.bumpEpoch(hosted...)
	return underReplicated, lost, nil
}

// repairTarget picks the destination for a new copy of c: a live node
// without one, preferring nodes in racks that do not yet hold a replica so
// repair restores the rack diversity the placement policy established
// (HDFS's replication monitor applies the same spread rule). Exactly one
// random draw happens per pick, so on single-rack clusters — where the
// preferred pool is always empty — both the choice and the RNG stream are
// identical to the old rack-oblivious pick. Returns -1 when every live node
// already holds a copy.
func (fs *FileSystem) repairTarget(c *Chunk, live []int) int {
	candidate := func(n int) bool { return !c.HostedOn(n) }
	pool := func(n int) bool {
		if !candidate(n) {
			return false
		}
		r := fs.view.RackOf(n)
		for _, rep := range c.Replicas {
			if fs.view.RackOf(rep) == r {
				return false
			}
		}
		return true
	}
	k := countWhere(live, pool)
	if k == 0 {
		pool, k = candidate, countWhere(live, candidate)
	}
	if k == 0 {
		return -1
	}
	return nthWhere(live, pool, fs.rng.Intn(k))
}

// ReReplicate works through the namenode's needed-replications queue: every
// chunk below its replication target gains copies from surviving holders
// onto live nodes without one, until the target (or the live-node count) is
// reached. Chunks with no surviving replica cannot be repaired and are
// skipped. It returns the number of chunks repaired and bumps the
// placement epoch, stamping the repaired chunks, when any replica was created.
func (fs *FileSystem) ReReplicate() (repaired int) {
	live := fs.LiveNodes()
	var touched []ChunkID
	for _, c := range fs.chunks {
		if len(c.Replicas) == 0 || len(c.Replicas) >= c.target {
			continue
		}
		added := false
		for len(c.Replicas) < c.target {
			dst := fs.repairTarget(c, live)
			if dst < 0 {
				break // cluster smaller than the factor; accept reduced redundancy
			}
			fs.attach(c, dst)
			added = true
		}
		if added {
			repaired++
			touched = append(touched, c.ID)
		}
	}
	if repaired > 0 {
		fs.bumpEpoch(touched...)
	}
	return repaired
}

// AddReplica places an extra copy of a chunk on node (increasing its
// replication), as the namenode does when re-replicating or when a
// redistribution tool requests a new copy.
func (fs *FileSystem) AddReplica(id ChunkID, node int) error {
	c := fs.Chunk(id)
	if node < 0 || node >= fs.view.NumNodes() || fs.dead[node] {
		return fmt.Errorf("dfs: add replica of chunk %d: node %d not live", id, node)
	}
	if c.HostedOn(node) {
		return fmt.Errorf("dfs: chunk %d already has a replica on node %d", id, node)
	}
	fs.attach(c, node)
	if len(c.Replicas) > c.target {
		c.target = len(c.Replicas)
	}
	fs.bumpEpoch(id)
	return nil
}

// RemoveReplica drops the copy of a chunk on node and lowers the chunk's
// replication target to match (HDFS setrep semantics: an explicit removal
// means the lower redundancy is intended, so repair must not undo it). It
// refuses to remove the last replica.
func (fs *FileSystem) RemoveReplica(id ChunkID, node int) error {
	c := fs.Chunk(id)
	if !c.HostedOn(node) {
		return fmt.Errorf("dfs: chunk %d has no replica on node %d", id, node)
	}
	if len(c.Replicas) <= 1 {
		return fmt.Errorf("dfs: refusing to remove the last replica of chunk %d", id)
	}
	fs.detach(c, node)
	if c.target > len(c.Replicas) {
		c.target = len(c.Replicas)
	}
	fs.bumpEpoch(id)
	return nil
}

// MoveReplica relocates one copy of a chunk from src to dst. The chunk's
// replication target is preserved — a move is not a setrep, even though it
// is built from an add and a remove.
func (fs *FileSystem) MoveReplica(id ChunkID, src, dst int) error {
	tgt := fs.Chunk(id).target
	if err := fs.AddReplica(id, dst); err != nil {
		return err
	}
	if err := fs.RemoveReplica(id, src); err != nil {
		// Roll back the add so the operation is atomic.
		if rbErr := fs.RemoveReplica(id, dst); rbErr != nil {
			return fmt.Errorf("dfs: move replica rollback failed: %v (after %w)", rbErr, err)
		}
		fs.Chunk(id).target = tgt
		return err
	}
	fs.Chunk(id).target = tgt
	return nil
}

// Fsck verifies the namenode's internal consistency, like its namesake:
// every replica list entry has a matching per-node index entry and vice
// versa, replicas are distinct and live, file sizes equal the sum of their
// chunks, and every chunk belongs to exactly one file. It returns the list
// of problems found (empty means healthy). The mutation-heavy operations
// (balancer, crash and repair, redistribution) are fuzzed against it.
func (fs *FileSystem) Fsck() []string {
	var problems []string
	// Replica lists vs per-node index.
	indexed := map[ChunkID]map[int]bool{}
	for node, ids := range fs.perNode {
		for _, id := range ids {
			if indexed[id] == nil {
				indexed[id] = map[int]bool{}
			}
			if indexed[id][node] {
				problems = append(problems, fmt.Sprintf("node %d indexes chunk %d twice", node, id))
			}
			indexed[id][node] = true
		}
	}
	chunkOwner := map[ChunkID]string{}
	for _, c := range fs.chunks {
		seen := map[int]bool{}
		for _, r := range c.Replicas {
			if seen[r] {
				problems = append(problems, fmt.Sprintf("chunk %d lists node %d twice", c.ID, r))
			}
			seen[r] = true
			if fs.dead[r] {
				problems = append(problems, fmt.Sprintf("chunk %d has a replica on dead node %d", c.ID, r))
			}
			if !indexed[c.ID][r] {
				problems = append(problems, fmt.Sprintf("chunk %d replica on node %d missing from index", c.ID, r))
			}
		}
		if len(indexed[c.ID]) != len(c.Replicas) {
			problems = append(problems, fmt.Sprintf("chunk %d indexed on %d nodes but lists %d replicas",
				c.ID, len(indexed[c.ID]), len(c.Replicas)))
		}
		chunkOwner[c.ID] = c.File
	}
	// Files vs chunks.
	for _, name := range fs.order {
		f := fs.files[name]
		var sum float64
		for _, id := range f.Chunks {
			c := fs.Chunk(id)
			if c.File != name {
				problems = append(problems, fmt.Sprintf("file %q claims chunk %d owned by %q", name, id, c.File))
			}
			sum += c.SizeMB
			delete(chunkOwner, id)
		}
		if diff := sum - f.SizeMB; diff > 1e-6 || diff < -1e-6 {
			problems = append(problems, fmt.Sprintf("file %q size %v != chunk sum %v", name, f.SizeMB, sum))
		}
	}
	for id, owner := range chunkOwner {
		problems = append(problems, fmt.Sprintf("orphan chunk %d (file %q not in namespace)", id, owner))
	}
	return problems
}

// BalanceReport summarizes per-node storage utilization.
type BalanceReport struct {
	MeanMB float64
	MaxMB  float64
	MinMB  float64
	// Overloaded and Underloaded list nodes beyond the threshold around the
	// mean used by the balancer.
	Overloaded  []int
	Underloaded []int
}

// Utilization computes a balance report with the given relative threshold
// (e.g. 0.1 flags nodes more than 10% above/below the mean).
func (fs *FileSystem) Utilization(threshold float64) BalanceReport {
	live := fs.LiveNodes()
	rep := BalanceReport{MinMB: -1}
	var total float64
	for _, n := range live {
		s := fs.StoredMB(n)
		total += s
		if s > rep.MaxMB {
			rep.MaxMB = s
		}
		if rep.MinMB < 0 || s < rep.MinMB {
			rep.MinMB = s
		}
	}
	if len(live) == 0 {
		rep.MinMB = 0 // the -1 above is a loop sentinel, not a result
		return rep
	}
	rep.MeanMB = total / float64(len(live))
	for _, n := range live {
		s := fs.StoredMB(n)
		switch {
		case s > rep.MeanMB*(1+threshold):
			rep.Overloaded = append(rep.Overloaded, n)
		case s < rep.MeanMB*(1-threshold):
			rep.Underloaded = append(rep.Underloaded, n)
		}
	}
	return rep
}

// Balance runs an HDFS-balancer-like pass: repeatedly move one replica from
// the most loaded node to the least loaded node that does not already host
// a copy, until every node is within threshold of the mean or no legal move
// exists. It returns the number of replicas moved.
func (fs *FileSystem) Balance(threshold float64) int {
	if threshold <= 0 {
		threshold = 0.1
	}
	// Ties go to the lowest node ID: MaxFunc and MinFunc keep the first.
	byStored := func(a, b int) int { return cmp.Compare(fs.StoredMB(a), fs.StoredMB(b)) }
	moved := 0
	for iter := 0; iter < 10*len(fs.chunks)+10; iter++ {
		rep := fs.Utilization(threshold)
		if len(rep.Overloaded) == 0 || len(rep.Underloaded) == 0 {
			break
		}
		src := slices.MaxFunc(rep.Overloaded, byStored)
		dst := slices.MinFunc(rep.Underloaded, byStored)
		if !fs.moveOneReplica(src, dst, fs.StoredMB(src)-rep.MeanMB) {
			break
		}
		moved++
	}
	return moved
}

// moveOneReplica relocates one replica from src to dst. It picks the
// largest movable chunk that fits within the donor's overage (how far src
// sits above the mean), so a move never swings the donor from overloaded to
// underloaded: an unbounded largest-chunk pick can overshoot past the mean
// and leave Balance ping-ponging one big chunk between two nodes until the
// iteration cap. When every movable chunk exceeds the overage, it falls
// back to the smallest movable chunk, and only if moving it still strictly
// shrinks the src/dst gap — otherwise no move helps and the balancer stops.
func (fs *FileSystem) moveOneReplica(src, dst int, overageMB float64) bool {
	var pick, smallest ChunkID = -1, -1
	var pickSize, smallestSize float64
	for _, id := range fs.perNode[src] {
		c := fs.chunks[int(id)]
		if c.HostedOn(dst) {
			continue
		}
		if c.SizeMB <= overageMB && c.SizeMB > pickSize {
			pick, pickSize = id, c.SizeMB
		}
		if smallest < 0 || c.SizeMB < smallestSize {
			smallest, smallestSize = id, c.SizeMB
		}
	}
	if pick < 0 {
		if smallest < 0 || smallestSize >= fs.StoredMB(src)-fs.StoredMB(dst) {
			return false
		}
		pick = smallest
	}
	c := fs.chunks[int(pick)]
	fs.detach(c, src)
	fs.attach(c, dst)
	fs.bumpEpoch(pick)
	return true
}
