package core

import "opass/internal/dfs"

// Placement is everything the planners read of the file system: for each
// chunk a problem's inputs name, the nodes holding a replica — the one
// relation Opass takes from the namenode (§IV-A). Task sizes come from the
// tasks themselves. *dfs.FileSystem satisfies it for callers that own a live
// store; Layout satisfies it for a placement that is only ever read. An id
// the view does not hold panics, as dfs.FileSystem.Chunk does.
type Placement interface {
	// Replicas lists the nodes hosting the chunk, ascending. The slice is
	// the view's own storage: read-only to the caller.
	Replicas(id dfs.ChunkID) []int
}

// Layout is a Placement held as two flat arrays (CSR): chunk i is hosted on
// Reps[RepOff[i]:RepOff[i+1]], which must be ascending and distinct — the
// order the dfs ledger keeps, and so the order every fingerprint and
// tie-break was defined over. A Layout and the dfs.FileSystem built from the
// same rows are indistinguishable to the planners and encode to the same
// canonical bytes.
type Layout struct {
	RepOff []int // one offset per chunk into Reps, plus the end
	Reps   []int
}

// Replicas returns chunk id's row, capped so an append cannot reach the next.
func (l *Layout) Replicas(id dfs.ChunkID) []int {
	lo, hi := l.RepOff[id], l.RepOff[id+1]
	return l.Reps[lo:hi:hi]
}
