package core

import (
	"math/rand"
	"slices"
)

// This file is the post-solve half of every planner: a solver (max flow,
// the direct matcher, MultiExact's transport, Algorithm 1) places the tasks
// it can place node-locally, and the repair stages here home the rest — first in a
// rack that holds their data, then wherever there is most room.

// quotaLedger is the accounting the repair stages share: what each process
// has been given so far and how much more it may take. It keeps one of two
// books, fixed at construction. The count book is the paper's "equal number
// of tasks" constraint, or MultiExact's weighted counts: process i may own
// quota[i] tasks, and among processes with a free slot the one with the
// least assigned MB is the better home. The MB book is the single-data
// planner's on unequal sizes or under weights: process i may own quotaMB[i]
// capacity units (1/scale MB, the solver's encoding), loads are entered in
// the same units, and the better home is the one with more of its quota left.
type quotaLedger struct {
	quotaMB []int64 // MB book, in capacity units; nil selects the count book
	scale   int64   // MB book: capacity units per MB
	quota   []int   // count book: the solver's task quotas
	count   []int
	load    []float64 // MB in the count book, capacity units in the MB book
}

// newQuotaLedger opens a ledger over p's processes with every already-owned
// task of owner entered. A nil quotaMB selects the count book over quotas,
// which sum to the task count; otherwise quotaMB is in 1/scale MB.
func newQuotaLedger(p *Problem, owner, quotas []int, quotaMB []int64, scale int64) *quotaLedger {
	m := p.NumProcs()
	l := &quotaLedger{quotaMB: quotaMB, scale: scale, quota: quotas, count: make([]int, m), load: make([]float64, m)}
	for t, o := range owner {
		if o >= 0 {
			l.give(o, p.Tasks[t].SizeMB())
		}
	}
	return l
}

// give enters a task of sizeMB megabytes under process i.
func (l *quotaLedger) give(i int, sizeMB float64) {
	l.count[i]++
	if l.quotaMB != nil {
		sizeMB = float64(capUnits(sizeMB, l.scale))
	}
	l.load[i] += sizeMB
}

// headroom orders processes as homes for one more task: more is better. In
// the MB book it is the quota left (negative once overdrawn); in the count
// book, where slots are all-or-nothing, it is the negated load, so "more
// headroom" reads "least assigned MB" — the paper's rule (§IV-B).
func (l *quotaLedger) headroom(i int) float64 {
	if l.quotaMB != nil {
		return float64(l.quotaMB[i]) - l.load[i]
	}
	return -l.load[i]
}

// hasRoom reports whether process i is still under its quota.
func (l *quotaLedger) hasRoom(i int) bool {
	if l.quotaMB != nil {
		return l.headroom(i) > 0
	}
	return l.count[i] < l.quota[i]
}

// pick returns the home for a task no locality tier could place: the
// process with the most headroom, ties broken uniformly at random ("we
// randomly assign unmatched tasks to each such process", §IV-B). The count
// book only considers processes with a free slot; one always exists, because
// the count quotas sum to the task count and this task is not yet entered.
// The MB book considers every process: MB quotas rarely leave a gap the last
// tasks fit exactly, so most-quota-left is the rule even when every process
// is overdrawn.
func (l *quotaLedger) pick(rng *rand.Rand) int {
	best, ties := -1, 0
	for i := range l.load {
		if l.quotaMB == nil && !l.hasRoom(i) {
			continue
		}
		switch h := l.headroom(i); {
		case best == -1 || h > l.headroom(best):
			best, ties = i, 1
		case h == l.headroom(best):
			ties++
			if rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// finishAssignment completes a solver's partial owner vector (-1 = left
// unmatched) into an Assignment, in three stages whose decisions are of
// three different kinds:
//
//  1. solver-matched: owners already set are locality decisions and are
//     recorded in Assignment.Matched;
//  2. rack-steered: with a rack map (rack.go), each unmatched task — in
//     ascending ID order, with no randomness — goes to the process with room
//     holding the most of its data rack-locally, ties to more headroom and
//     then lower rank; without rack edges the stage is a structural no-op,
//     so rack-oblivious plans stay byte-identical;
//  3. random repair: whatever is still unmatched goes to quotaLedger.pick.
//
// The owner vector is b's, which the assignment keeps. quotaMB selects the
// ledger's book and is in 1/scale MB; nil selects the count book over
// quotas, the task counts the solver planned under. seed drives the random
// repair. When the solver placed every task, neither repair stage has work,
// so neither the ledger nor the generator is built.
func finishAssignment(p *Problem, ix *LocalityIndex, b *answerBuf, quotas []int, quotaMB []int64, scale, seed int64) *Assignment {
	owner := b.owner
	b.matched = slices.Grow(b.matched[:0], len(owner))[:len(owner)]
	matched := b.matched
	complete := true
	for t, o := range owner {
		matched[t] = o >= 0
		complete = complete && matched[t]
	}
	if complete {
		return newAssignment(p, ix, b, matched)
	}
	l := newQuotaLedger(p, owner, quotas, quotaMB, scale)
	if ix.RackTiered() {
		for t := range owner {
			if owner[t] >= 0 {
				continue
			}
			best, bestMB, bestRoom := -1, 0.0, 0.0
			for _, e := range ix.TaskRackEdges(t) {
				if !l.hasRoom(e.Proc) {
					continue
				}
				// Rack rows are in touch order, so every tie-break is
				// explicit: more MB, then more headroom, then lower rank.
				room := l.headroom(e.Proc)
				if best == -1 || e.MB > bestMB || e.MB == bestMB && (room > bestRoom || room == bestRoom && e.Proc < best) {
					best, bestMB, bestRoom = e.Proc, e.MB, room
				}
			}
			if best >= 0 {
				owner[t] = best
				l.give(best, p.Tasks[t].SizeMB())
			}
		}
		// Re-enter the steered tasks in ID order: loads are float sums and
		// pick detects ties by exact equality, so the order of addition is
		// part of the plan.
		l = newQuotaLedger(p, owner, quotas, quotaMB, scale)
	}
	rng := rand.New(rand.NewSource(seed))
	for t := range owner {
		if owner[t] < 0 {
			owner[t] = l.pick(rng)
			l.give(owner[t], p.Tasks[t].SizeMB())
		}
	}
	return newAssignment(p, ix, b, matched)
}

// newAssignment wraps b's complete owner vector: per-process lists in
// ascending task order (the deterministic execution order), carved from b
// like the owner, and the planned locality. A process with no task has a nil
// list. ix, when the planner has one, supplies each owner's co-located MB,
// the same value as the probe; nil probes. matched is nil for planners with
// no solver/repair split.
func newAssignment(p *Problem, ix *LocalityIndex, b *answerBuf, matched []bool) *Assignment {
	owner, m := b.owner, p.NumProcs()
	b.lists = slices.Grow(b.lists[:0], m)[:m]
	b.flat = slices.Grow(b.flat[:0], len(owner))[:len(owner)]
	b.off = slices.Grow(b.off[:0], m+1)[:m+1]
	lists := groupRanksInto(b.lists, b.flat, b.off, owner)
	a := &Assignment{Owner: owner, Lists: lists, Matched: matched, PlannedTotalMB: p.TotalMB(), buf: b}
	for t, proc := range owner { // task order: the sum is a float contract
		if ix != nil {
			a.PlannedLocalMB += ix.CoLocatedMB(proc, t)
		} else {
			a.PlannedLocalMB += p.CoLocatedMB(proc, t)
		}
	}
	return a
}
