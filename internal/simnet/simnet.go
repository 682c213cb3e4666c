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
	"sort"
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
}

// Remaining reports the MB still to transfer.
func (f *Flow) Remaining() float64 { return f.remaining }

// CompletionHandler is invoked by Run whenever a flow finishes. The handler
// runs with the clock at the completion instant and may start new flows.
type CompletionHandler func(now float64, f *Flow)

// Network is a set of resources and the flows sharing them. The zero value
// is not usable; use New.
type Network struct {
	resources []Resource
	flows     map[FlowID]*Flow
	order     []FlowID // deterministic iteration order of active flows
	nextID    FlowID
	now       float64
	onDone    CompletionHandler
	dirty     bool // rates need recomputation

	// scales[i] multiplies resources[i].Capacity; 1 for a healthy resource.
	// Degraded-node fault injection lowers it (a sick disk or flapping NIC
	// delivering a fraction of nominal throughput).
	scales []float64

	// scratch buffers reused across rate computations
	load    []int
	remCap  []float64
	cnt     []int
	started int64
	done    int64

	// workMB accumulates megabytes moved through each resource — the raw
	// material of utilization metrics (how busy each disk/NIC was).
	workMB []float64
}

// timeEpsilon bounds the smallest interval the simulator will advance; it
// absorbs floating-point residue when many flows finish together.
const timeEpsilon = 1e-9

// sizeEpsilon is the residual transfer size treated as complete.
const sizeEpsilon = 1e-9

// New returns an empty Network with its clock at zero.
func New() *Network {
	return &Network{flows: make(map[FlowID]*Flow)}
}

// AddResource registers a resource and returns its ID. Capacity must be
// positive and seekPenalty non-negative.
func (n *Network) AddResource(name string, capacity, seekPenalty float64) ResourceID {
	if capacity <= 0 {
		panic(fmt.Sprintf("simnet: resource %q capacity %v must be positive", name, capacity))
	}
	if seekPenalty < 0 {
		panic(fmt.Sprintf("simnet: resource %q seek penalty %v must be non-negative", name, seekPenalty))
	}
	n.resources = append(n.resources, Resource{Name: name, Capacity: capacity, SeekPenalty: seekPenalty})
	n.growScratch()
	return ResourceID(len(n.resources) - 1)
}

func (n *Network) growScratch() {
	for len(n.load) < len(n.resources) {
		n.load = append(n.load, 0)
		n.remCap = append(n.remCap, 0)
		n.cnt = append(n.cnt, 0)
		n.workMB = append(n.workMB, 0)
		n.scales = append(n.scales, 1)
	}
}

// SetScale sets the capacity multiplier of resource id: a degraded device
// delivers scale × its nominal bandwidth until restored with scale 1. The
// multiplier must be positive. Rates are recomputed at the next event, so
// in-flight transfers slow down (or speed up) from the current instant on —
// the fluid-model analogue of a device losing throughput mid-transfer.
// Nominal Capacity, and with it Utilization's denominator, is unchanged, so
// a degraded disk correctly reports low utilization of its rated bandwidth.
func (n *Network) SetScale(id ResourceID, scale float64) {
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		panic(fmt.Sprintf("simnet: resource %q scale %v must be positive and finite", n.resources[int(id)].Name, scale))
	}
	n.scales[int(id)] = scale
	n.dirty = true
}

// Scale reports the current capacity multiplier of resource id.
func (n *Network) Scale(id ResourceID) float64 { return n.scales[int(id)] }

// WorkMB reports the megabytes that have moved through resource id so far.
func (n *Network) WorkMB(id ResourceID) float64 {
	return n.workMB[int(id)]
}

// Utilization reports the fraction of resource id's capacity used over the
// window [since, Now()]: work done divided by capacity times elapsed time.
// It returns 0 for an empty window.
func (n *Network) Utilization(id ResourceID, since float64) float64 {
	elapsed := n.now - since
	if elapsed <= 0 {
		return 0
	}
	return n.workMB[int(id)] / (n.resources[int(id)].Capacity * elapsed)
}

// Resource returns the definition of id.
func (n *Network) Resource(id ResourceID) Resource {
	return n.resources[int(id)]
}

// Now reports the current virtual time in seconds.
func (n *Network) Now() float64 { return n.now }

// Started reports the total number of flows ever started.
func (n *Network) Started() int64 { return n.started }

// Completed reports the total number of flows that have finished.
func (n *Network) Completed() int64 { return n.done }

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
	id := n.nextID
	n.nextID++
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
	n.flows[id] = f
	n.order = append(n.order, id)
	n.started++
	n.dirty = true
	return id
}

// recomputeRates assigns every transferring flow its max-min fair rate.
func (n *Network) recomputeRates() {
	n.dirty = false
	// Count transferring flows per resource to derive effective capacities.
	for i := range n.resources {
		n.load[i] = 0
	}
	transferring := 0
	for _, id := range n.order {
		f := n.flows[id]
		if f == nil || f.delayLeft > 0 || f.remaining <= 0 {
			continue
		}
		transferring++
		for _, r := range f.Path {
			n.load[int(r)]++
		}
	}
	if transferring == 0 {
		return
	}
	for i, r := range n.resources {
		k := n.load[i]
		n.cnt[i] = k
		effective := r.Capacity * n.scales[i]
		if k == 0 {
			n.remCap[i] = effective
			continue
		}
		n.remCap[i] = effective / (1 + r.SeekPenalty*float64(k-1))
	}
	// Progressive filling: repeatedly saturate the tightest resource.
	frozen := make(map[FlowID]bool, transferring)
	for left := transferring; left > 0; {
		// Find the bottleneck resource: smallest per-flow fair share.
		best := -1
		bestShare := math.Inf(1)
		for i := range n.resources {
			if n.cnt[i] == 0 {
				continue
			}
			share := n.remCap[i] / float64(n.cnt[i])
			if share < bestShare {
				bestShare = share
				best = i
			}
		}
		if best < 0 {
			// No flow traverses any resource; all remaining flows are
			// unconstrained, which cannot happen because transferring flows
			// must have non-empty paths.
			panic("simnet: unconstrained transferring flow")
		}
		// Freeze every unfrozen flow crossing the bottleneck at the share.
		for _, id := range n.order {
			f := n.flows[id]
			if f == nil || frozen[f.ID] || f.delayLeft > 0 || f.remaining <= 0 {
				continue
			}
			crosses := false
			for _, r := range f.Path {
				if int(r) == best {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			frozen[f.ID] = true
			f.rate = bestShare
			left--
			for _, r := range f.Path {
				i := int(r)
				n.remCap[i] -= bestShare
				if n.remCap[i] < 0 {
					n.remCap[i] = 0
				}
				n.cnt[i]--
			}
		}
	}
}

// nextEvent returns the time until the earliest delay expiry or flow
// completion, or +Inf when no flows are active.
func (n *Network) nextEvent() float64 {
	dt := math.Inf(1)
	for _, id := range n.order {
		f := n.flows[id]
		if f == nil {
			continue
		}
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
	n.advance(dt)
	n.completeFinished()
	return len(n.flows) > 0
}

// advance moves the clock forward by dt, draining delays and transfers.
func (n *Network) advance(dt float64) {
	n.now += dt
	for _, id := range n.order {
		f := n.flows[id]
		if f == nil {
			continue
		}
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
				n.workMB[int(r)] += moved
			}
		}
	}
}

// completeFinished retires every flow that has no delay and no data left,
// invoking the completion handler. Handlers may start new flows.
func (n *Network) completeFinished() {
	var finished []*Flow
	for _, id := range n.order {
		f := n.flows[id]
		if f == nil || f.delayLeft > 0 {
			continue
		}
		if f.remaining <= sizeEpsilon {
			f.remaining = 0
			f.rate = 0
			f.End = n.now
			finished = append(finished, f)
		}
	}
	if len(finished) == 0 {
		return
	}
	sort.Slice(finished, func(i, j int) bool { return finished[i].ID < finished[j].ID })
	for _, f := range finished {
		delete(n.flows, f.ID)
		n.done++
	}
	n.compactOrder()
	n.dirty = true
	if n.onDone != nil {
		for _, f := range finished {
			n.onDone(n.now, f)
		}
	}
}

// compactOrder drops retired IDs from the iteration order.
func (n *Network) compactOrder() {
	keep := n.order[:0]
	for _, id := range n.order {
		if _, ok := n.flows[id]; ok {
			keep = append(keep, id)
		}
	}
	n.order = keep
}

// Cancel aborts an in-flight flow: it is removed immediately, no completion
// handler fires, and its bandwidth is redistributed at the next event. It
// reports the megabytes that remained untransferred, or -1 when the flow is
// not active (already completed or cancelled). Used to model failures —
// a crashed serving node tears down its transfers mid-flight.
func (n *Network) Cancel(id FlowID) float64 {
	f, ok := n.flows[id]
	if !ok {
		return -1
	}
	delete(n.flows, id)
	n.compactOrder()
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

// RunUntil advances the simulation until the clock reaches deadline or no
// flows remain, whichever comes first. It reports whether flows remain.
func (n *Network) RunUntil(deadline float64) bool {
	for len(n.flows) > 0 && n.now < deadline {
		if n.dirty {
			n.recomputeRates()
		}
		dt := n.nextEvent()
		if math.IsInf(dt, 1) {
			panic("simnet: deadlock — active flows cannot progress")
		}
		if n.now+dt > deadline {
			n.advance(deadline - n.now)
			return true
		}
		n.advance(dt)
		n.completeFinished()
	}
	return len(n.flows) > 0
}
