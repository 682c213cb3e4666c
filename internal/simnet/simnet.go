// Package simnet implements a deterministic fluid-flow simulator for shared
// cluster resources (disks and network interfaces).
//
// The simulator models data transfers as fluid flows over a path of
// resources. At any instant every active flow receives a max-min fair share
// of the capacity of each resource on its path; the flow's transfer rate is
// the minimum share along the path (its bottleneck). Whenever the set of
// active flows changes, rates are recomputed, so the simulation advances as
// a sequence of piecewise-constant-rate intervals — the standard fluid
// approximation used in network and storage simulators.
//
// Disks additionally model head-seek interference: when k flows read a disk
// concurrently, the disk's aggregate bandwidth degrades to
//
//	capacity / (1 + alpha*(k-1))
//
// which captures the super-linear slowdown the Opass paper attributes to
// "read requests from different processes competing for the hard disk head".
// Setting alpha to zero yields an ideal fair-shared resource.
//
// Flows may carry a startup delay (seek + RPC latency) during which they
// consume no bandwidth, and flows of size zero act as pure timers, which the
// execution engine uses to model compute phases.
//
// All state is driven by a virtual clock; nothing here depends on wall time,
// so runs are exactly reproducible.
package simnet

import (
	"fmt"
	"math"
	"slices"
)

// ResourceID names a resource registered with a Network.
type ResourceID int

// FlowID names a flow started on a Network.
type FlowID int

// Resource is a capacity-limited component such as a disk or a NIC
// direction. Capacity is in MB/s. SeekPenalty is the per-extra-stream
// degradation factor alpha described in the package comment; it is zero for
// resources that share ideally (network links).
type Resource struct {
	Name        string
	Capacity    float64
	SeekPenalty float64
}

// Flow is one in-flight transfer. Flows are created by Network.Start and
// owned by the Network; callers receive the pointer in completion callbacks
// and must not mutate it.
type Flow struct {
	ID    FlowID
	Label string
	Path  []ResourceID // resources traversed; empty for pure timers
	Size  float64      // MB to transfer
	Delay float64      // startup latency in seconds

	Start float64 // virtual time the flow was started
	End   float64 // virtual time the flow completed (set on completion)

	remaining float64
	delayLeft float64
	rate      float64
	frozen    bool // recomputeRates scratch: rate settled, or not transferring
}

// CompletionHandler is invoked by Run whenever a flow finishes. The handler
// runs with the clock at the completion instant and may start new flows.
type CompletionHandler func(now float64, f *Flow)

// Network is a set of resources and the flows sharing them. The zero value
// is not usable; use New.
type Network struct {
	resources []resource
	// flows holds the in-flight flows in ascending ID — IDs grow monotonically,
	// Start appends and retiring compacts in place — so it is both the table
	// (Cancel binary-searches it) and the deterministic iteration order.
	flows  []*Flow
	now    float64
	onDone CompletionHandler
	dirty  bool // rates need recomputation

	// Scratch reused across rate computations. touched lists the resources
	// some transferring flow crossed in the last recompute (load is zero on all
	// others); byRes is the CSR body: resource r's transferring flows, by ID,
	// are byRes[r.pos-r.load : r.pos].
	touched  []int
	byRes    []*Flow
	finished []*Flow // completeFinished's batch buffer

	started, done, events, recomputes int64
}

// resource is a Resource with its run-time state and the solver's scratch.
type resource struct {
	Resource
	// scale multiplies Capacity; 1 when healthy. Degraded-node fault injection
	// lowers it (a sick disk or flapping NIC delivering a fraction of nominal).
	scale float64
	// workMB accumulates the megabytes moved through the resource — the raw
	// material of utilization metrics (how busy each disk/NIC was).
	workMB float64

	load, cnt, pos int     // transferring flows, the unfrozen of them, CSR cursor
	remCap         float64 // capacity not yet handed to frozen flows
}

// timeEpsilon bounds the smallest interval the simulator will advance; it
// absorbs floating-point residue when many flows finish together.
const timeEpsilon = 1e-9

// sizeEpsilon is the residual transfer size treated as complete.
const sizeEpsilon = 1e-9

// New returns an empty Network with its clock at zero.
func New() *Network { return &Network{} }

// AddResource registers a resource and returns its ID. Capacity must be
// positive and seekPenalty non-negative.
func (n *Network) AddResource(name string, capacity, seekPenalty float64) ResourceID {
	if capacity <= 0 {
		panic(fmt.Sprintf("simnet: resource %q capacity %v must be positive", name, capacity))
	}
	if seekPenalty < 0 {
		panic(fmt.Sprintf("simnet: resource %q seek penalty %v must be non-negative", name, seekPenalty))
	}
	n.resources = append(n.resources, resource{Resource: Resource{name, capacity, seekPenalty}, scale: 1})
	return ResourceID(len(n.resources) - 1)
}

// SetScale sets the capacity multiplier of resource id: a degraded device
// delivers scale × its nominal bandwidth until restored with scale 1. The
// multiplier must be positive. Rates are recomputed at the next event, so
// in-flight transfers slow down (or speed up) from the current instant on —
// the fluid-model analogue of a device losing throughput mid-transfer.
// Nominal Capacity is unchanged, so a degraded disk's WorkMB correctly reads
// as low utilization of its rated bandwidth.
func (n *Network) SetScale(id ResourceID, scale float64) {
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		panic(fmt.Sprintf("simnet: resource %q scale %v must be positive and finite", n.resources[int(id)].Name, scale))
	}
	n.resources[id].scale = scale
	n.dirty = true
}

// Scale reports the current capacity multiplier of resource id.
func (n *Network) Scale(id ResourceID) float64 { return n.resources[id].scale }

// WorkMB reports the megabytes that have moved through resource id so far.
func (n *Network) WorkMB(id ResourceID) float64 { return n.resources[id].workMB }

// Now reports the current virtual time in seconds.
func (n *Network) Now() float64 { return n.now }

// Started reports the total number of flows ever started.
func (n *Network) Started() int64 { return n.started }

// Completed reports the total number of flows that have finished.
func (n *Network) Completed() int64 { return n.done }

// Events reports the events stepped so far: delay expiries and completion
// batches, each one pass over the active flows.
func (n *Network) Events() int64 { return n.events }

// RateRecomputes reports the max-min rate solves run so far.
func (n *Network) RateRecomputes() int64 { return n.recomputes }

// Active reports the number of in-flight flows.
func (n *Network) Active() int { return len(n.flows) }

// OnComplete installs the completion handler. It must be set before Run if
// the caller needs completion events; it may be nil.
func (n *Network) OnComplete(h CompletionHandler) { n.onDone = h }

// Start launches a flow over path transferring sizeMB megabytes after a
// startup delay of delay seconds. A nil or empty path with sizeMB==0 acts as
// a pure timer that fires after delay. It returns the new flow's ID.
func (n *Network) Start(path []ResourceID, sizeMB, delay float64, label string) FlowID {
	if sizeMB < 0 {
		panic(fmt.Sprintf("simnet: flow %q size %v must be non-negative", label, sizeMB))
	}
	if delay < 0 {
		panic(fmt.Sprintf("simnet: flow %q delay %v must be non-negative", label, delay))
	}
	if sizeMB > 0 && len(path) == 0 {
		panic(fmt.Sprintf("simnet: flow %q transfers data but has no path", label))
	}
	for _, r := range path {
		if int(r) < 0 || int(r) >= len(n.resources) {
			panic(fmt.Sprintf("simnet: flow %q references unknown resource %d", label, r))
		}
	}
	id := FlowID(n.started) // IDs count up from zero, which keeps flows sorted
	f := &Flow{
		ID:        id,
		Label:     label,
		Path:      append([]ResourceID(nil), path...),
		Size:      sizeMB,
		Delay:     delay,
		Start:     n.now,
		remaining: sizeMB,
		delayLeft: delay,
	}
	n.flows = append(n.flows, f)
	n.started++
	n.dirty = true
	return id
}

// recomputeRates assigns every transferring flow its max-min fair rate by
// progressive filling, in O(sum of path lengths + rounds x touched resources):
// a round scans only resources some transferring flow crosses and walks only
// the bottleneck's own flow list. Each float update keeps the operands, and
// each resource the update order (ascending flow ID), of the all-flows-per-
// round formulation in reference_test.go: rates are bit-identical to it.
func (n *Network) recomputeRates() {
	n.dirty = false
	n.recomputes++
	// Count transferring flows per resource; only the resources the last
	// recompute touched hold a stale count.
	res := n.resources
	for _, i := range n.touched {
		res[i].load = 0
	}
	n.touched = n.touched[:0]
	left := 0
	for _, f := range n.flows {
		f.frozen = f.delayLeft > 0 || f.remaining <= 0 // not transferring
		if f.frozen {
			continue
		}
		left++
		for _, i := range f.Path {
			if res[i].load == 0 {
				n.touched = append(n.touched, int(i))
			}
			res[i].load++
		}
	}
	// Effective capacities, and each touched resource's slot in the CSR.
	end := 0
	for _, i := range n.touched {
		r := &res[i]
		effective := r.Capacity * r.scale
		r.remCap = effective / (1 + r.SeekPenalty*float64(r.load-1))
		r.cnt, r.pos = r.load, end
		end += r.load
	}
	n.byRes = slices.Grow(n.byRes[:0], end)[:end]
	for _, f := range n.flows {
		if f.frozen {
			continue
		}
		for _, i := range f.Path {
			n.byRes[res[i].pos] = f
			res[i].pos++ // ends one past the resource's list
		}
	}
	// Progressive filling: repeatedly saturate the tightest resource.
	for left > 0 {
		// Find the bottleneck resource: smallest per-flow fair share, ties
		// to the lowest resource index (touched is in first-use order).
		best, bestShare := -1, math.Inf(1)
		for _, i := range n.touched {
			if res[i].cnt == 0 {
				continue
			}
			share := res[i].remCap / float64(res[i].cnt)
			if share < bestShare || (share == bestShare && i < best) {
				best, bestShare = i, share
			}
		}
		if best < 0 {
			// Unreachable: a transferring flow has a non-empty path, so an
			// unfrozen one keeps some touched resource's cnt above zero.
			panic("simnet: unconstrained transferring flow")
		}
		// Freeze every unfrozen flow crossing the bottleneck at the share.
		for _, f := range n.byRes[res[best].pos-res[best].load : res[best].pos] {
			if f.frozen {
				continue
			}
			f.frozen, f.rate = true, bestShare
			left--
			for _, i := range f.Path {
				r := &res[i]
				r.remCap -= bestShare
				if r.remCap < 0 {
					r.remCap = 0
				}
				r.cnt--
			}
		}
	}
}

// nextEvent returns the time until the earliest delay expiry or flow
// completion, or +Inf when no flows are active. A linear scan, not a heap:
// most events change most rates, which re-keys the heap, and the lazy progress
// accounting a heap wants would reorder advance's float updates.
func (n *Network) nextEvent() float64 {
	dt := math.Inf(1)
	for _, f := range n.flows {
		if f.delayLeft > 0 {
			if f.delayLeft < dt {
				dt = f.delayLeft
			}
			continue
		}
		if f.remaining <= sizeEpsilon {
			dt = 0
			continue
		}
		if f.rate > 0 {
			if t := f.remaining / f.rate; t < dt {
				dt = t
			}
		}
	}
	return dt
}

// Step advances the simulation by exactly one event (the earliest delay
// expiry or completion), invoking the completion handler for every flow that
// finishes at that instant. It reports whether any flows remain active.
func (n *Network) Step() bool {
	if len(n.flows) == 0 {
		return false
	}
	n.step(math.Inf(1))
	return len(n.flows) > 0
}

// step advances a busy network to its next event and reports true, or only
// as far as deadline when that comes first and reports false.
func (n *Network) step(deadline float64) bool {
	if n.dirty {
		n.recomputeRates()
	}
	dt := n.nextEvent()
	if math.IsInf(dt, 1) {
		// Active flows exist but none can make progress: a stall would loop
		// forever, so fail loudly.
		panic("simnet: deadlock — active flows cannot progress")
	}
	if dt < 0 {
		dt = 0
	}
	if n.now+dt > deadline {
		n.advance(deadline - n.now)
		return false
	}
	n.events++
	n.advance(dt)
	n.completeFinished()
	return true
}

// advance moves the clock forward by dt, draining delays and transfers.
func (n *Network) advance(dt float64) {
	n.now += dt
	for _, f := range n.flows {
		if f.delayLeft > 0 {
			f.delayLeft -= dt
			if f.delayLeft <= timeEpsilon {
				f.delayLeft = 0
				n.dirty = true // flow begins transferring (or completes if empty)
			}
			continue
		}
		if f.rate > 0 {
			f.remaining -= f.rate * dt
			moved := f.rate * dt
			for _, r := range f.Path {
				n.resources[r].workMB += moved
			}
		}
	}
}

// completeFinished retires every flow that has no delay and no data left,
// invoking the completion handler. One pass collects the batch (in table, so
// ID, order) and compacts the table: finished flows are gone before handlers
// run, which may start new flows and get -1 cancelling a batch-mate.
func (n *Network) completeFinished() {
	batch, keep := n.finished[:0], n.flows[:0]
	for _, f := range n.flows {
		if f.delayLeft > 0 || f.remaining > sizeEpsilon {
			keep = append(keep, f)
			continue
		}
		f.remaining = 0
		f.rate = 0
		f.End = n.now
		batch = append(batch, f)
	}
	if len(batch) == 0 {
		return
	}
	clear(n.flows[len(keep):])
	n.flows = keep
	n.done += int64(len(batch))
	n.dirty = true
	if n.onDone != nil {
		// The buffer is detached while handlers run, so a handler that steps
		// the network itself cannot overwrite the batch being delivered.
		n.finished = nil
		for _, f := range batch {
			n.onDone(n.now, f)
		}
	}
	clear(batch)
	n.finished = batch
}

// Cancel aborts an in-flight flow: it is removed immediately, no completion
// handler fires, and its bandwidth is redistributed at the next event. It
// reports the megabytes that remained untransferred, or -1 when the flow is
// not active (already completed or cancelled). Used to model failures —
// a crashed serving node tears down its transfers mid-flight.
func (n *Network) Cancel(id FlowID) float64 {
	i, ok := slices.BinarySearchFunc(n.flows, id, func(f *Flow, id FlowID) int { return int(f.ID - id) })
	if !ok {
		return -1
	}
	f := n.flows[i]
	n.flows = slices.Delete(n.flows, i, i+1)
	n.dirty = true
	return f.remaining
}

// Run advances the simulation until no flows remain (including flows started
// by completion handlers). It returns the final virtual time.
func (n *Network) Run() float64 {
	for n.Step() {
	}
	return n.now
}

// StepN advances the simulation by up to budget events, stopping early when
// no flows remain. It reports whether flows remain — the budgeted drain
// slice cooperative cancellation runs on: callers interleave StepN with
// cancellation checks instead of an uninterruptible Run. A non-positive
// budget advances nothing and just reports activity.
func (n *Network) StepN(budget int) bool {
	for i := 0; i < budget; i++ {
		if !n.Step() {
			return false
		}
	}
	return len(n.flows) > 0
}
