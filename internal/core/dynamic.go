package core

import (
	"fmt"
	"math/rand"
)

// This file implements §IV-D: Opass for dynamic parallel data access. A
// master process owns the task pool and hands tasks to workers as they go
// idle (the mpiBLAST execution model). Opass computes per-worker preferred
// lists A* up front with its matching planners; the master then follows the
// three rules of §IV-D:
//
//  1. pop the idle worker's own list while it is non-empty;
//  2. otherwise steal from the longest remaining list, choosing the task in
//     it with the largest data co-located with the idle worker;
//  3. finish when every list is empty.

// DynamicScheduler serves tasks to idle processes following the Opass
// guideline lists. It satisfies the execution engine's TaskSource contract
// (Next(proc) (task, ok)).
type DynamicScheduler struct {
	p      *Problem
	ix     *LocalityIndex
	lists  [][]int // remaining tasks per process, in list order
	remain int
}

// NewDynamicScheduler builds a scheduler from a planned assignment
// (normally produced by SingleData or MultiData). It builds the locality
// index once so every steal scan resolves co-located sizes from the task's
// index row instead of re-probing chunk replica lists.
func NewDynamicScheduler(p *Problem, a *Assignment) (*DynamicScheduler, error) {
	if err := a.Validate(p); err != nil {
		return nil, err
	}
	lists := make([][]int, len(a.Lists))
	total := 0
	for i := range a.Lists {
		lists[i] = append([]int(nil), a.Lists[i]...)
		total += len(lists[i])
	}
	return &DynamicScheduler{p: p, ix: NewLocalityIndex(p), lists: lists, remain: total}, nil
}

// Next hands the idle process proc its next task. It reports ok=false when
// every list is drained.
func (s *DynamicScheduler) Next(proc int) (task int, ok bool) {
	if proc < 0 || proc >= len(s.lists) {
		panic(fmt.Sprintf("core: dynamic scheduler asked for unknown process %d", proc))
	}
	if s.remain == 0 {
		return 0, false
	}
	// Rule 2 of §IV-D: own list first.
	if own := s.lists[proc]; len(own) > 0 {
		task = own[0]
		s.lists[proc] = own[1:]
		s.remain--
		return task, true
	}
	// Rule 3: steal from the longest remaining list the task with the most
	// data co-located with proc, breaking node-tier ties by rack-local
	// bytes (zero on single-rack problems, so the rack term never changes
	// a rack-oblivious steal). Ties on list length and on both tiers break
	// toward lower indices for determinism.
	longest := -1
	for k := range s.lists {
		if longest == -1 || len(s.lists[k]) > len(s.lists[longest]) {
			longest = k
		}
	}
	if longest == -1 || len(s.lists[longest]) == 0 {
		return 0, false
	}
	bestIdx, bestW, bestR := 0, -1.0, -1.0
	for i, t := range s.lists[longest] {
		w := s.ix.CoLocatedMB(proc, t)
		r := s.ix.RackCoLocatedMB(proc, t)
		if w > bestW || (w == bestW && r > bestR) {
			bestIdx, bestW, bestR = i, w, r
		}
	}
	task = s.lists[longest][bestIdx]
	s.lists[longest] = append(s.lists[longest][:bestIdx], s.lists[longest][bestIdx+1:]...)
	s.remain--
	return task, true
}

// RandomDispatcher is the baseline master of the paper's dynamic
// experiments: it hands an idle worker a uniformly random unexecuted task,
// with no knowledge of data placement ("issue data requests via a random
// policy", §V-A3).
type RandomDispatcher struct {
	pool []int
	rng  *rand.Rand
}

// NewRandomDispatcher builds a dispatcher over all tasks of the problem.
func NewRandomDispatcher(p *Problem, seed int64) *RandomDispatcher {
	pool := make([]int, len(p.Tasks))
	for i := range pool {
		pool[i] = i
	}
	return &RandomDispatcher{pool: pool, rng: rand.New(rand.NewSource(seed))}
}

// Next hands any idle process a random remaining task.
func (d *RandomDispatcher) Next(_ int) (task int, ok bool) {
	if len(d.pool) == 0 {
		return 0, false
	}
	i := d.rng.Intn(len(d.pool))
	task = d.pool[i]
	d.pool[i] = d.pool[len(d.pool)-1]
	d.pool = d.pool[:len(d.pool)-1]
	return task, true
}
