package dfs

import (
	"fmt"
	"math"
	"sort"
)

// This file adds per-chunk access accounting to the namenode — the telemetry
// half of the adaptive replication loop (ROADMAP item 2). The engine's read
// path reports every chunk read here; the replication advisor
// (internal/advisor) classifies chunks hot/warm/cold from the decayed scores
// and drives the replica machinery (SetReplicationTarget, AddReplica,
// RemoveReplica, ReReplicate) to close the telemetry→placement loop. The
// scheme follows the weighted dynamic-replication literature (temporal
// locality via exponentially decayed access counters, popularity degree
// relative to the mean): a read contributes a unit impulse that halves every
// HalfLife seconds of simulated time, so recent access dominates and
// formerly-hot data cools off on its own.

// AccessStats is the decayed access record of one chunk at a given time.
// Scores are decayed counters, not rates: each read adds 1 to Reads (and
// SizeMB to ServedMB), and all scores halve every HalfLife seconds. Their
// absolute unit is therefore meaningless on its own — classification
// compares a chunk's score against the fleet mean (the popularity degree).
type AccessStats struct {
	// Reads is the decayed read count.
	Reads float64
	// ServedMB is the decayed megabytes served from any replica.
	ServedMB float64
	// RemoteMB is the decayed megabytes served to readers with no local
	// replica — the demand the matcher failed to place locally.
	RemoteMB float64
	// TotalReads counts every read ever recorded (no decay).
	TotalReads uint64
}

// accessEntry is the mutable per-chunk accounting state.
type accessEntry struct {
	last       float64 // simulated time of the last decay
	reads      float64
	servedMB   float64
	remoteMB   float64
	totalReads uint64
	// remoteBy tallies decayed remote megabytes by reader node, so the
	// advisor can place a new replica where the remote demand actually
	// originates. Only populated on remote reads; small in practice (a chunk
	// has few distinct remote readers per decay window).
	remoteBy map[int]float64
}

// decayTo folds the exponential decay from e.last to now into the scores.
func (e *accessEntry) decayTo(now, halfLife float64) {
	if now <= e.last {
		return
	}
	f := math.Exp2(-(now - e.last) / halfLife)
	e.reads *= f
	e.servedMB *= f
	e.remoteMB *= f
	for n, mb := range e.remoteBy {
		mb *= f
		if mb < 1e-6 {
			delete(e.remoteBy, n) // fully cooled: drop the tally entry
			continue
		}
		e.remoteBy[n] = mb
	}
	e.last = now
}

// accessStats is the file-system-wide accounting switchboard; nil until
// EnableAccessStats, so recording costs one pointer test when disabled.
type accessStats struct {
	halfLife float64
	entries  map[ChunkID]*accessEntry
}

// EnableAccessStats turns on per-chunk access accounting with the given
// decay half-life in seconds of simulated time (scores halve every halfLife
// seconds). It must be called before the reads it should observe; enabling
// twice resets the accounting with the new half-life. Access accounting
// shares the file system's single-goroutine discipline: callers must not
// record concurrently with metadata mutations.
func (fs *FileSystem) EnableAccessStats(halfLife float64) {
	if halfLife <= 0 {
		panic(fmt.Sprintf("dfs: access half-life %v must be positive", halfLife))
	}
	fs.access = &accessStats{halfLife: halfLife, entries: make(map[ChunkID]*accessEntry)}
}

// AccessStatsEnabled reports whether the file system is accounting reads.
func (fs *FileSystem) AccessStatsEnabled() bool { return fs.access != nil }

// RecordRead accounts one chunk read served at simulated time now: reader is
// the reading process's node and local whether the read was served from the
// reader's own disk. A no-op until EnableAccessStats. The engine's read
// paths call this for every read they start.
func (fs *FileSystem) RecordRead(id ChunkID, reader int, local bool, sizeMB, now float64) {
	a := fs.access
	if a == nil {
		return
	}
	e := a.entries[id]
	if e == nil {
		e = &accessEntry{last: now}
		a.entries[id] = e
	}
	e.decayTo(now, a.halfLife)
	e.reads++
	e.servedMB += sizeMB
	e.totalReads++
	if !local {
		e.remoteMB += sizeMB
		if e.remoteBy == nil {
			e.remoteBy = make(map[int]float64, 4)
		}
		e.remoteBy[reader] += sizeMB
	}
}

// Access returns the chunk's decayed access scores at simulated time now.
// A chunk never read (or accounting disabled) reports zeros.
func (fs *FileSystem) Access(id ChunkID, now float64) AccessStats {
	a := fs.access
	if a == nil {
		return AccessStats{}
	}
	e := a.entries[id]
	if e == nil {
		return AccessStats{}
	}
	e.decayTo(now, a.halfLife)
	return AccessStats{
		Reads:      e.reads,
		ServedMB:   e.servedMB,
		RemoteMB:   e.remoteMB,
		TotalReads: e.totalReads,
	}
}

// RemoteReaders returns the nodes that read the chunk remotely, ordered by
// decayed remote megabytes (hottest first, ties by ascending node ID), at
// simulated time now. The advisor places new replicas at the head of this
// list — the node whose process keeps pulling the chunk over the network.
func (fs *FileSystem) RemoteReaders(id ChunkID, now float64) []int {
	a := fs.access
	if a == nil {
		return nil
	}
	e := a.entries[id]
	if e == nil || len(e.remoteBy) == 0 {
		return nil
	}
	e.decayTo(now, a.halfLife)
	if len(e.remoteBy) == 0 {
		return nil // every tally cooled below the floor during the decay
	}
	nodes := make([]int, 0, len(e.remoteBy))
	for n := range e.remoteBy {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		mi, mj := e.remoteBy[nodes[i]], e.remoteBy[nodes[j]]
		if mi != mj {
			return mi > mj
		}
		return nodes[i] < nodes[j]
	})
	return nodes
}

// RemoteReadMB returns the decayed remote megabytes each node pulled from
// the chunk at simulated time now, as a fresh map the caller may mutate.
// The rack-aware advisor aggregates it per rack to find the hottest remote
// rack lacking a copy. Nil when access accounting is off or nothing remote
// was recorded.
func (fs *FileSystem) RemoteReadMB(id ChunkID, now float64) map[int]float64 {
	a := fs.access
	if a == nil {
		return nil
	}
	e := a.entries[id]
	if e == nil || len(e.remoteBy) == 0 {
		return nil
	}
	e.decayTo(now, a.halfLife)
	if len(e.remoteBy) == 0 {
		return nil
	}
	out := make(map[int]float64, len(e.remoteBy))
	for n, mb := range e.remoteBy {
		out[n] = mb
	}
	return out
}

// SetReplicationTarget sets the chunk's replication target — the HDFS
// setrep call as a pure metadata operation. Unlike AddReplica/RemoveReplica
// (which move the target implicitly as copies appear and vanish) this only
// declares the intended redundancy: raising it above the current replica
// count queues the chunk for ReReplicate; lowering it below leaves the
// excess copies in place until an explicit RemoveReplica trims them (the
// advisor chooses which holder to relieve). The target must be at least 1.
// A changed target bumps the chunk's epoch: its repair semantics changed, so
// the engine's delta replan re-examines the tasks that read it.
func (fs *FileSystem) SetReplicationTarget(id ChunkID, target int) error {
	c := fs.Chunk(id)
	if target < 1 {
		return fmt.Errorf("dfs: set replication target of chunk %d: target %d must be >= 1", id, target)
	}
	if c.target == target {
		return nil
	}
	c.target = target
	fs.bumpEpoch(id)
	return nil
}

// TotalStoredMB sums the stored megabytes over all live nodes — the storage
// bill the advisor keeps within budget.
func (fs *FileSystem) TotalStoredMB() float64 {
	var s float64
	for _, n := range fs.LiveNodes() {
		s += fs.StoredMB(n)
	}
	return s
}
