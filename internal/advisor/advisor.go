// Package advisor closes the telemetry→placement loop: it reads the
// namenode's decayed per-chunk access accounting (dfs.EnableAccessStats),
// classifies chunks hot/warm/cold by popularity degree — a chunk's decayed
// served megabytes relative to the fleet mean, following the weighted
// dynamic-replication literature — and adjusts replication to match demand.
// Hot chunks the matcher keeps placing remotely gain a replica on the node
// whose processes keep pulling them over the network; cold chunks shed their
// excess copies from the most-loaded holder. Every pass stays within a
// storage budget and never trims a chunk below its redundancy floor.
//
// The advisor implements engine.AdvisorTicker, so an engine run drives it at
// a fixed virtual-time interval; a tick that changed placement makes the
// engine replan its pending backlog against the new replica sets (the delta
// replan finds the moved chunks by the per-chunk epochs every dfs mutation
// stamps).
package advisor

import (
	"fmt"
	"sort"

	"opass/internal/dfs"
)

// The classification thresholds and redundancy bounds. A chunk is hot when
// its popularity degree (decayed served MB over the fleet mean) is at least
// hotFactor and cold at or below coldFactor. The advisor never trims a chunk
// below minReplicas copies and never grows one past maxReplicas (further
// capped by the live-node count).
const (
	hotFactor   = 2
	coldFactor  = 0.25
	minReplicas = 2
	maxReplicas = 5
)

// Options configures an Advisor.
type Options struct {
	// MaxActions caps replica additions and removals per tick (each
	// direction separately), so one pass never storms the cluster. Default 4.
	MaxActions int
}

// Stats is the advisor's cumulative action count plus the fleet
// classification at the last tick.
type Stats struct {
	Ticks           int
	ReplicasAdded   int
	ReplicasRemoved int
	TargetsRaised   int
	TargetsLowered  int
	Hot, Warm, Cold int
}

// Advisor is a periodic replication policy over one file system. It is not
// safe for concurrent use; the engine drives Tick sequentially in
// virtual-time order, matching the namenode's single-goroutine discipline.
type Advisor struct {
	fs         *dfs.FileSystem
	maxActions int
	// budgetMB bounds the cluster's total stored megabytes: the advisor adds
	// no replica that would push dfs.TotalStoredMB past it. It is the stored
	// megabytes at New, so adaptive replication only trades space and never
	// grows the bill.
	budgetMB float64
	stats    Stats
}

// New builds an advisor over fs. Access accounting must already be enabled
// (the half-life is workload-dependent, so the caller owns that choice).
func New(fs *dfs.FileSystem, opts Options) (*Advisor, error) {
	if !fs.AccessStatsEnabled() {
		return nil, fmt.Errorf("advisor: access accounting disabled; call EnableAccessStats first")
	}
	if opts.MaxActions == 0 {
		opts.MaxActions = 4
	}
	if opts.MaxActions < 0 {
		return nil, fmt.Errorf("advisor: max actions %d must be positive", opts.MaxActions)
	}
	return &Advisor{fs: fs, maxActions: opts.MaxActions, budgetMB: fs.TotalStoredMB()}, nil
}

// Stats returns the cumulative action counts and last-tick classification.
func (a *Advisor) Stats() Stats { return a.stats }

// chunkState is one live chunk's classification input.
type chunkState struct {
	id    dfs.ChunkID
	score float64 // decayed served MB
	st    dfs.AccessStats
}

// Tick implements engine.AdvisorTicker: run one advisory pass at simulated
// time now and report whether placement changed (so the engine replans its
// pending backlog). A pass first trims cold chunks — freeing budget — then
// promotes hot chunks that still see remote demand, placing each new copy on
// the remote reader pulling the most megabytes.
func (a *Advisor) Tick(now float64) bool {
	a.stats.Ticks++

	chunks := a.liveChunks(now)
	var mean float64
	for _, c := range chunks {
		mean += c.score
	}
	if len(chunks) > 0 {
		mean /= float64(len(chunks))
	}

	changed := false
	var hot, cold []chunkState
	nHot, nWarm, nCold := 0, 0, 0
	if mean > 0 {
		for _, c := range chunks {
			switch pd := c.score / mean; {
			case pd >= hotFactor:
				nHot++
				if c.st.RemoteMB > 1e-6 {
					hot = append(hot, c)
				}
			case pd <= coldFactor:
				nCold++
				cold = append(cold, c)
			default:
				nWarm++
			}
		}
		if a.trimCold(cold) {
			changed = true
		}
		if a.promoteHot(hot, now) {
			changed = true
		}
	}

	a.stats.Hot, a.stats.Warm, a.stats.Cold = nHot, nWarm, nCold
	return changed
}

// liveChunks collects every chunk reachable from the namespace with its
// decayed access scores. Deleted chunks never appear (their files are gone).
func (a *Advisor) liveChunks(now float64) []chunkState {
	var out []chunkState
	for _, name := range a.fs.Files() {
		f, err := a.fs.Stat(name)
		if err != nil {
			continue // renamed or deleted between Files and Stat; skip
		}
		for _, id := range f.Chunks {
			st := a.fs.Access(id, now)
			out = append(out, chunkState{id: id, score: st.ServedMB, st: st})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// trimCold sheds one copy from each of the coldest over-replicated chunks,
// up to maxActions. The replica leaves the most-loaded holder, so trimming
// doubles as a nudge toward balanced utilization. The setrep-down comes
// first so the intent is declared even if the physical remove fails.
func (a *Advisor) trimCold(cold []chunkState) bool {
	sort.Slice(cold, func(i, j int) bool {
		if cold[i].score != cold[j].score {
			return cold[i].score < cold[j].score
		}
		return cold[i].id < cold[j].id
	})
	changed := false
	actions := 0
	for _, c := range cold {
		if actions >= a.maxActions {
			break
		}
		ch := a.fs.Chunk(c.id)
		if len(ch.Replicas) <= minReplicas {
			continue
		}
		if ch.ReplicationTarget() > len(ch.Replicas)-1 {
			if err := a.fs.SetReplicationTarget(c.id, len(ch.Replicas)-1); err != nil {
				continue
			}
			a.stats.TargetsLowered++
			changed = true
		}
		victim := ch.Replicas[0]
		for _, r := range ch.Replicas[1:] {
			if a.fs.StoredMB(r) > a.fs.StoredMB(victim) {
				victim = r
			}
		}
		if err := a.fs.RemoveReplica(c.id, victim); err != nil {
			continue
		}
		a.stats.ReplicasRemoved++
		changed = true
		actions++
	}
	return changed
}

// promoteHot raises the replication of the hottest remote-heavy chunks, up
// to maxActions and within the storage budget. On a multi-rack cluster each
// new copy lands in the hottest remote *rack* lacking one (see
// promotionTarget); otherwise it lands on the node whose processes pulled
// the most remote megabytes (the head of RemoteReaders), with the
// least-loaded live non-holder as fallback.
func (a *Advisor) promoteHot(hot []chunkState, now float64) bool {
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].st.RemoteMB != hot[j].st.RemoteMB {
			return hot[i].st.RemoteMB > hot[j].st.RemoteMB
		}
		return hot[i].id < hot[j].id
	})
	live := a.fs.LiveNodes()
	alive := make(map[int]bool, len(live))
	for _, n := range live {
		alive[n] = true
	}
	cap := min(maxReplicas, len(live))
	changed := false
	actions := 0
	for _, c := range hot {
		if actions >= a.maxActions {
			break
		}
		ch := a.fs.Chunk(c.id)
		if len(ch.Replicas) >= cap {
			continue
		}
		if a.fs.TotalStoredMB()+ch.SizeMB > a.budgetMB {
			continue // a smaller hot chunk later in the list may still fit
		}
		dst := a.promotionTarget(c.id, ch, alive, live, now)
		if dst < 0 {
			continue
		}
		if ch.ReplicationTarget() < len(ch.Replicas)+1 {
			if err := a.fs.SetReplicationTarget(c.id, len(ch.Replicas)+1); err != nil {
				continue
			}
			a.stats.TargetsRaised++
			changed = true
		}
		if err := a.fs.AddReplica(c.id, dst); err != nil {
			continue
		}
		a.stats.ReplicasAdded++
		changed = true
		actions++
	}
	return changed
}

// promotionTarget picks the node to host a hot chunk's new copy. On a
// multi-rack cluster the copy goes to the hottest remote rack lacking a
// replica — the rack whose readers pull the most decayed remote megabytes
// and where a single copy converts every member's reads from cross-rack to
// rack-local (the HDFS-policy notion of rack spread, driven by demand
// instead of by writes). Within that rack the hottest live remote reader
// wins, falling back to the rack's least-loaded live non-holder. When
// every rack with demand already holds a copy — always true on a
// single-rack cluster — the rack-oblivious rule applies unchanged: the
// hottest live remote reader anywhere, else the least-loaded live
// non-holder. Returns -1 when no node can take a copy.
func (a *Advisor) promotionTarget(id dfs.ChunkID, ch *dfs.Chunk, alive map[int]bool, live []int, now float64) int {
	view := a.fs.View()
	if demand := a.fs.RemoteReadMB(id, now); len(demand) > 0 && multiRack(view) {
		rackDemand := make(map[int]float64)
		for n, mb := range demand {
			if n >= 0 && n < view.NumNodes() {
				rackDemand[view.RackOf(n)] += mb
			}
		}
		for _, r := range ch.Replicas {
			if r >= 0 && r < view.NumNodes() {
				delete(rackDemand, view.RackOf(r))
			}
		}
		// Deterministic over map iteration order: most demand wins, ties by
		// lowest rack id.
		bestRack, bestMB := -1, 0.0
		for r, mb := range rackDemand {
			if bestRack < 0 || mb > bestMB || (mb == bestMB && r < bestRack) {
				bestRack, bestMB = r, mb
			}
		}
		if bestRack >= 0 {
			dst := -1
			for _, n := range a.fs.RemoteReaders(id, now) {
				if alive[n] && !ch.HostedOn(n) && n < view.NumNodes() && view.RackOf(n) == bestRack {
					dst = n
					break
				}
			}
			if dst < 0 {
				for _, n := range live {
					if view.RackOf(n) == bestRack && !ch.HostedOn(n) &&
						(dst < 0 || a.fs.StoredMB(n) < a.fs.StoredMB(dst)) {
						dst = n
					}
				}
			}
			if dst >= 0 {
				return dst
			}
		}
	}
	dst := -1
	for _, n := range a.fs.RemoteReaders(id, now) {
		if alive[n] && !ch.HostedOn(n) {
			dst = n
			break
		}
	}
	if dst < 0 {
		for _, n := range live {
			if !ch.HostedOn(n) && (dst < 0 || a.fs.StoredMB(n) < a.fs.StoredMB(dst)) {
				dst = n
			}
		}
	}
	return dst
}

// multiRack reports whether the view spans more than one rack.
func multiRack(view dfs.ClusterView) bool {
	n := view.NumNodes()
	for i := 1; i < n; i++ {
		if view.RackOf(i) != view.RackOf(0) {
			return true
		}
	}
	return false
}
