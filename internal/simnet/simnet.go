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
// owned by the Network, which recycles them: a *Flow handed to a completion
// handler is valid only until that handler returns, and callers must not
// mutate it. Callers keep the FlowID and the handle, never the pointer.
type Flow struct {
	ID     FlowID
	Handle int          // the caller's handle, as passed to Start
	Path   []ResourceID // resources traversed; empty for pure timers
	Size   float64      // MB to transfer
	Delay  float64      // startup latency in seconds

	Start float64 // virtual time the flow was started
	End   float64 // virtual time the flow completed (set on completion)

	remaining float64
	delayLeft float64
	rate      float64
	frozen    bool // recomputeRates scratch: rate settled, or not transferring
	// inline holds Path when it fits: a local read crosses 1 resource, a
	// remote one 3 and a cross-rack one 5.
	inline [5]ResourceID
}

// CompletionHandler is invoked by Run whenever a flow finishes. The handler
// runs with the clock at the completion instant and may start new flows. f
// is recycled once the handler returns: it must not be retained.
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
	// others); byRes is the CSR body: the transferring flows, by ID, of a
	// resource r left to the filling rounds are byRes[r.pos-r.load : r.pos];
	// heap is the bottleneck min-heap and changed a round's requeue list.
	touched  []int
	byRes    []*Flow
	heap     []shareEntry
	changed  []int
	finished []*Flow // completeFinished's batch buffer
	// free holds retired flows for Start to reuse: a completed flow once its
	// handler has returned, a cancelled one at once.
	free []*Flow

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

	remCap         float64 // capacity not yet handed to frozen flows
	load, cnt, pos int32   // transferring flows, the unfrozen of them, CSR cursor
	ver            uint32  // filling round that last changed cnt and remCap
}

// timeEpsilon bounds the smallest interval the simulator will advance; it
// absorbs floating-point residue when many flows finish together.
const timeEpsilon = 1e-9

// sizeEpsilon is the residual transfer size treated as complete.
const sizeEpsilon = 1e-9

// New returns an empty Network with its clock at zero.
func New() *Network { return &Network{} }

// Reset empties the network for reuse: it is then what New returns — no
// resources, no flows, the clock, counters and flow IDs at zero, no
// completion handler — but it keeps its storage: the resource table's
// capacity, the solver's scratch and the free list, to which any flow still
// in flight is retired without its handler running. Resources must be
// registered again, each at scale 1 with no work done.
func (n *Network) Reset() {
	free := append(n.free, n.flows...)
	clear(n.flows)
	*n = Network{
		resources: n.resources[:0],
		flows:     n.flows[:0],
		touched:   n.touched[:0],
		byRes:     n.byRes[:0],
		heap:      n.heap[:0],
		changed:   n.changed[:0],
		finished:  n.finished[:0],
		free:      free,
	}
}

// Grow reserves room for another k resources, so registering them does not
// regrow the resource table.
func (n *Network) Grow(k int) { n.resources = slices.Grow(n.resources, k) }

// AddResource registers a resource and returns its ID. Capacity must be
// positive and seekPenalty non-negative. The name need not be unique: the ID
// identifies the resource.
func (n *Network) AddResource(name string, capacity, seekPenalty float64) ResourceID {
	id := ResourceID(len(n.resources))
	if capacity <= 0 {
		panic(fmt.Sprintf("simnet: resource %d (%s) capacity %v must be positive", id, name, capacity))
	}
	if seekPenalty < 0 {
		panic(fmt.Sprintf("simnet: resource %d (%s) seek penalty %v must be non-negative", id, name, seekPenalty))
	}
	n.resources = append(n.resources, resource{Resource: Resource{name, capacity, seekPenalty}, scale: 1})
	return id
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
		panic(fmt.Sprintf("simnet: resource %d (%s) scale %v must be positive and finite", id, n.resources[id].Name, scale))
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
// a pure timer that fires after delay. handle is the caller's, handed back
// on the flow; the network reads it only to name the flow in a panic. Start
// copies path, and reuses a retired flow when one is free, so once warm it
// allocates nothing. It returns the new flow's ID.
func (n *Network) Start(path []ResourceID, sizeMB, delay float64, handle int) FlowID {
	if sizeMB < 0 {
		panic(fmt.Sprintf("simnet: flow (handle %d) size %v must be non-negative", handle, sizeMB))
	}
	if delay < 0 {
		panic(fmt.Sprintf("simnet: flow (handle %d) delay %v must be non-negative", handle, delay))
	}
	if sizeMB > 0 && len(path) == 0 {
		panic(fmt.Sprintf("simnet: flow (handle %d) transfers data but has no path", handle))
	}
	for _, r := range path {
		if int(r) < 0 || int(r) >= len(n.resources) {
			panic(fmt.Sprintf("simnet: flow (handle %d) references unknown resource %d", handle, r))
		}
	}
	var f *Flow
	if k := len(n.free); k > 0 {
		f, n.free = n.free[k-1], n.free[:k-1]
	} else {
		f = new(Flow)
	}
	*f = Flow{
		ID:        FlowID(n.started), // IDs count up from zero, which keeps flows sorted
		Handle:    handle,
		Size:      sizeMB,
		Delay:     delay,
		Start:     n.now,
		remaining: sizeMB,
		delayLeft: delay,
	}
	if len(path) > 0 {
		f.Path = append(f.inline[:0], path...) // a path over 5 resources gets its own array
	}
	n.flows = append(n.flows, f)
	n.started++
	n.dirty = true
	return f.ID
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
// run, which may start new flows and get -1 cancelling a batch-mate. Each
// flow is freed once its own handler has returned, so a flow a handler
// starts never reuses a batch-mate still waiting for its handler.
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
			n.free = append(n.free, f)
		}
	} else {
		n.free = append(n.free, batch...)
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
	n.free = append(n.free, f)
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
