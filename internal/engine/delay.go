package engine

import "opass/internal/core"

// DelayDispatcher is a delay-scheduling master (Zaharia et al., EuroSys'10),
// the established locality-improving scheduler the paper's related-work
// section (§VI) positions Opass against — a third point between the
// placement-oblivious random master and Opass's planned lists. It is a
// PollingSource:
//
//   - if a remaining task has data on the idle worker's node, serve the one
//     with the most co-located bytes immediately;
//   - otherwise ask the worker to wait, up to MaxSkips polls, in the hope
//     that a local task frees up (other workers finishing change nothing
//     about *this* worker's locality here, but waiting lets the contended
//     cluster drain — the same trade delay scheduling makes);
//   - after MaxSkips waits, or when the whole cluster is stalled, give up
//     on locality and serve the remaining task with the most co-located
//     data, falling back to the lowest-numbered task.
type DelayDispatcher struct {
	// MaxSkips is the number of times a worker may be asked to wait before
	// receiving a non-local task (the D parameter).
	MaxSkips int

	p         *core.Problem
	remaining map[int]bool
	skips     []int
}

// NewDelayDispatcher builds a delay-scheduling master over every task of
// the problem. maxSkips <= 0 degenerates into locality-greedy immediate
// dispatch.
func NewDelayDispatcher(p *core.Problem, maxSkips int) *DelayDispatcher {
	remaining := make(map[int]bool, len(p.Tasks))
	for i := range p.Tasks {
		remaining[i] = true
	}
	return &DelayDispatcher{
		MaxSkips:  maxSkips,
		p:         p,
		remaining: remaining,
		skips:     make([]int, p.NumProcs()),
	}
}

// Next satisfies TaskSource so the dispatcher can be passed to Run (which
// then upgrades it to a PollingSource and uses Poll). Called directly, it
// dispatches without ever waiting.
func (d *DelayDispatcher) Next(proc int) (int, bool) {
	t, st := d.Poll(proc, true)
	return t, st == PollTask
}

// Poll implements PollingSource.
func (d *DelayDispatcher) Poll(proc int, stalled bool) (int, PollState) {
	if len(d.remaining) == 0 {
		return 0, PollDone
	}
	if t := d.pickLocal(proc); t >= 0 {
		d.skips[proc] = 0
		d.take(t)
		return t, PollTask
	}
	if !stalled && d.skips[proc] < d.MaxSkips {
		d.skips[proc]++
		return 0, PollWait
	}
	// Locality timeout: serve the best remaining task anyway.
	d.skips[proc] = 0
	t := d.pickBestRemaining(proc)
	d.take(t)
	return t, PollTask
}

// pickLocal returns the remaining task with the most data co-located with
// proc, or -1 when none has any.
func (d *DelayDispatcher) pickLocal(proc int) int {
	best, bestW := -1, 0.0
	for t := range d.remaining {
		w := d.p.CoLocatedMB(proc, t)
		if w > bestW || (w == bestW && w > 0 && (best == -1 || t < best)) {
			best, bestW = t, w
		}
	}
	return best
}

// pickBestRemaining returns the remaining task with the most co-located
// data (usually zero here), breaking ties toward the lowest task ID so the
// run is deterministic.
func (d *DelayDispatcher) pickBestRemaining(proc int) int {
	best, bestW := -1, -1.0
	for t := range d.remaining {
		w := d.p.CoLocatedMB(proc, t)
		if w > bestW || (w == bestW && (best == -1 || t < best)) {
			best, bestW = t, w
		}
	}
	return best
}

func (d *DelayDispatcher) take(t int) {
	delete(d.remaining, t)
}
