package core

import "opass/internal/dfs"

// Placement is everything the planners read of the file system: for each
// chunk a problem's inputs name, the nodes holding a replica, the chunk's
// placement epoch and its size — the one relation Opass takes from the
// namenode (§IV-A). *dfs.FileSystem satisfies it for callers that own a
// live store; Layout satisfies it for a placement that is only ever read.
// An id the view does not hold panics, as dfs.FileSystem.Chunk does.
type Placement interface {
	// Replicas lists the nodes hosting the chunk, ascending. The slice is
	// the view's own storage: read-only to the caller.
	Replicas(id dfs.ChunkID) []int
	// ChunkEpoch is the chunk's placement epoch (dfs.FileSystem.ChunkEpoch).
	ChunkEpoch(id dfs.ChunkID) uint64
	// ChunkSizeMB is the chunk's payload size.
	ChunkSizeMB(id dfs.ChunkID) float64
}

// Layout is a Placement held as three flat arrays (CSR): chunk i is
// SizesMB[i] megabytes and is hosted on Reps[RepOff[i]:RepOff[i+1]], which
// must be ascending and distinct — the order the dfs ledger keeps, and so the
// order every fingerprint and tie-break was defined over. It describes a
// layout as one bulk write would leave it: every chunk is at epoch 1, the
// epoch dfs stamps on the chunks of the first file created in a fresh store,
// so a Layout and the dfs.FileSystem built from the same rows are
// indistinguishable to the planners and encode to the same canonical bytes.
type Layout struct {
	SizesMB []float64
	RepOff  []int // len(SizesMB)+1 offsets into Reps
	Reps    []int
}

// Replicas returns chunk id's row, capped so an append cannot reach the next.
func (l *Layout) Replicas(id dfs.ChunkID) []int {
	lo, hi := l.RepOff[id], l.RepOff[id+1]
	return l.Reps[lo:hi:hi]
}

// ChunkEpoch is 1 for every chunk the layout holds.
func (l *Layout) ChunkEpoch(id dfs.ChunkID) uint64 {
	_ = l.SizesMB[id]
	return 1
}

// ChunkSizeMB returns chunk id's size.
func (l *Layout) ChunkSizeMB(id dfs.ChunkID) float64 { return l.SizesMB[id] }
