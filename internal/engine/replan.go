package engine

import (
	"fmt"

	"opass/internal/core"
	"opass/internal/dfs"
)

// This file implements degraded-mode replanning: when the placement truth
// changes mid-run (a DataNode crash drops replicas, re-replication restores
// them, a node recovers or slows down), the engine re-runs the Opass
// matcher over the not-yet-started backlog against the surviving placement
// and splices the result into the running source. Per-read failover alone
// keeps the job correct but lets locality decay — every read that lost its
// co-located copy goes to a random surviving holder; re-matching restores
// the paper's balanced, local access pattern for the work that has not
// begun (§III–IV applied online).

// ReplanBacklogDelta re-matches the part of src's backlog the placement event
// at eventNode could have moved against the current placement in fs (which
// p.FS reads), installs the result as src's new backlog, and leaves
// everything else queued where it was — the O(delta) replan. since is
// fs.Epoch() taken before the event mutated fs. A pending task is affected
// when
//
//   - an input chunk was touched after since, i.e. its ChunkEpoch exceeds
//     it (a permanent crash dropped its replica from the namenode, repair
//     re-created one, the balancer moved one), or
//   - an input chunk currently has a replica on eventNode (a transient
//     outage or degradation changed how attractive that copy is without
//     touching metadata), or
//   - the task is queued on a process hosted on eventNode (the process's
//     load capacity changed, so its backlog share must be revisited), or
//   - the task is displaced: it cannot be read locally where it is queued,
//     or it sits at the tail of a queue holding more than its process's
//     §IV-D share of the backlog (accumulated progress imbalance).
//
// A negative eventNode means no event attribution is available: every
// pending task is affected and nothing is kept — the full re-match.
//
// Processes that already terminated receive nothing; the rest are weighted
// by weight(node) — fractions shrink a process's share (a degraded disk, or
// a storage-dead node whose reads all go remote), zero excludes it —
// mirroring the §IV-D load-capacity skew in the quotas of whichever planner
// core.OpassPlanner picks for the backlog. A delta re-match uses
// slack-weighted quotas: each process's share of the re-matched data is
// what its load-capacity share of the TOTAL backlog says it deserves, minus
// the data it already keeps — so survivors that kept a full queue absorb
// little, drained processes absorb much, and the spliced result lands close
// to the full re-match's balance at a fraction of the cost. The re-matched
// tasks are appended after each process's kept backlog.
//
// It reports whether a splice happened and how many tasks were re-matched.
func ReplanBacklogDelta(p *core.Problem, fs *dfs.FileSystem, src *ListSource, finished []bool, weight func(node int) float64, seed int64, eventNode int, since uint64) (spliced bool, rematched int, err error) {
	if len(src.lists) != len(finished) {
		return false, 0, fmt.Errorf("engine: replan: source holds %d processes, problem has %d", len(src.lists), len(finished))
	}
	full := eventNode < 0
	affected := func(id, proc int) bool {
		if full || p.ProcNode[proc] == eventNode {
			return true
		}
		for _, in := range p.Tasks[id].Inputs {
			if fs.ChunkEpoch(in.Chunk) > since || p.HostedOn(in.Chunk, eventNode) {
				return true
			}
		}
		// Displaced: the task cannot be read locally where it is queued —
		// the prior matching left it stranded remote (quota pressure, or an
		// earlier fault took its co-located copy). Any event frees or
		// shifts quota, so give the matcher another chance at a local home.
		return p.CoLocatedMB(proc, id) == 0
	}

	// Each process's pending rows are read in place, and the source is
	// written only once the new backlog is complete: a process keeps the
	// tasks of its pending row that are not marked moved (re-matched).
	pending := func(proc int) []int { return src.lists[proc][src.pos[proc]:] }
	moved := make([]bool, len(p.Tasks))
	keptMB := make([]float64, len(src.lists))
	var totalMB float64
	backlog, nMoved := 0, 0
	for proc := range src.lists {
		backlog += len(pending(proc))
		for _, id := range pending(proc) {
			totalMB += p.Tasks[id].SizeMB()
			if affected(id, proc) {
				moved[id] = true
				nMoved++
			} else {
				keptMB[proc] += p.Tasks[id].SizeMB()
			}
		}
	}
	if nMoved == 0 {
		return false, 0, nil
	}
	var alive []int
	for proc := range src.lists {
		if !finished[proc] {
			alive = append(alive, proc)
		}
	}
	if len(alive) == 0 {
		// A backlog with every process terminated cannot happen with list
		// sources (a process only terminates once its list drains); leave
		// the backlog untouched rather than strand it silently.
		return false, 0, nil
	}

	raw := make([]float64, len(alive))
	var rawSum float64
	uniform := true
	for i, proc := range alive {
		raw[i] = weight(p.ProcNode[proc])
		rawSum += raw[i]
		if raw[i] != raw[0] {
			uniform = false
		}
	}

	// A fault event is also the moment accumulated progress imbalance
	// surfaces — processes that fell behind hold backlogs well past their
	// §IV-D share while early finishers sit near empty. Shed from the tail
	// of each kept queue any load beyond the process's share of the whole
	// backlog (keeping a one-task tolerance so balanced queues shed nothing)
	// and let the re-match redistribute it with the event-affected tasks.
	if rawSum > 0 {
		for i, proc := range alive {
			share := raw[i] / rawSum * totalMB
			row := pending(proc)
			for n := len(row) - 1; n >= 0; n-- {
				id := row[n]
				if moved[id] {
					continue
				}
				sz := p.Tasks[id].SizeMB()
				if keptMB[proc]-share <= sz {
					break
				}
				moved[id] = true
				nMoved++
				keptMB[proc] -= sz
			}
		}
	}
	taskIDs := make([]int, 0, nMoved) // ascending
	for id, m := range moved {
		if m {
			taskIDs = append(taskIDs, id)
		}
	}

	// Build a dense sub-problem over the re-matched tasks and the live
	// processes.
	sub := &core.Problem{
		FS:       p.FS,
		ProcNode: make([]int, len(alive)),
		Tasks:    make([]core.Task, len(taskIDs)),
	}
	for i, proc := range alive {
		sub.ProcNode[i] = p.ProcNode[proc]
	}
	for i, id := range taskIDs {
		sub.Tasks[i] = core.Task{ID: i, Inputs: p.Tasks[id].Inputs}
	}

	// Slack quotas: desired share of the whole backlog minus the data each
	// process keeps. A full re-match keeps nothing, so its slack would only
	// be the raw weights rescaled; it takes them as they are, which keeps
	// its plans byte-identical to the quotas the planner derives unaided.
	slack := make([]float64, len(alive))
	var slackSum float64
	if !full && rawSum > 0 {
		for i, proc := range alive {
			slack[i] = raw[i]/rawSum*totalMB - keptMB[proc]
			if slack[i] < 0 {
				slack[i] = 0
			}
			slackSum += slack[i]
		}
	}

	// Skewed shares only when they differ and are usable; degenerate slacks
	// (every process at or over its share) fall back to the raw weights, and
	// all-equal or all-zero raw weights to the uniform quota.
	var weights []float64
	switch {
	case slackSum > 0:
		weights = slack
	case !uniform && rawSum > 0:
		weights = raw
	}
	a, err := core.OpassPlanner(seed, weights, sub.MultiInput()).Assign(sub)
	if err != nil {
		return false, 0, fmt.Errorf("engine: replan: %w", err)
	}

	// The new backlog, in one buffer: each process's kept tasks, then the
	// ones re-matched to it.
	out, i := make([]int, 0, backlog), 0
	for proc := range src.lists {
		start := len(out)
		for _, id := range pending(proc) {
			if !moved[id] {
				out = append(out, id)
			}
		}
		if i < len(alive) && alive[i] == proc {
			for _, st := range a.Lists[i] {
				out = append(out, taskIDs[st])
			}
			i++
		}
		src.lists[proc] = out[start:len(out):len(out)]
	}
	// The backlog holds task IDs copied out of the sub-plan, which nothing
	// reads again: its storage goes back to the planners' pool.
	a.Release()
	clear(src.pos)
	return true, len(taskIDs), nil
}
