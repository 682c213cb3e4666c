package core

// Accessors only this package's tests read.

// Remaining reports how many tasks have not yet been handed out.
func (s *DynamicScheduler) Remaining() int { return s.remain }

// Remaining reports how many tasks have not yet been handed out.
func (d *RandomDispatcher) Remaining() int { return len(d.pool) }
