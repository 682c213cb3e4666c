package core

import "context"

// Accessors only this package's tests read.

// Remaining reports how many tasks have not yet been handed out.
func (s *DynamicScheduler) Remaining() int { return s.remain }

// Remaining reports how many tasks have not yet been handed out.
func (d *RandomDispatcher) Remaining() int { return len(d.pool) }

// countTaskRowSorts runs f and reports how many times an index sorted its
// deferred task rows meanwhile.
func countTaskRowSorts(f func()) int {
	sorts := 0
	testHookTaskRowSort = func() { sorts++ }
	defer func() { testHookTaskRowSort = nil }()
	f()
	return sorts
}

// taskEdges returns task t's locality edges in ascending process order,
// sorting the index's task rows on the first read.
func (ix *LocalityIndex) taskEdges(t int) []LocalityEdge {
	rows, _ := ix.taskRows(context.Background())
	return rows.Row(t)
}
