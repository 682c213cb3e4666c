package simnet

import (
	"math"
	"sort"
)

// refNetwork is the solver Network replaced, kept verbatim as the oracle of
// the differential tests in differential_test.go: a map of flows plus an ID
// order slice, plain progressive filling that re-scans every flow per round,
// and a frozen map per recompute. It is deliberately the slow, obviously
// correct version — every float operation of Network must land on the same
// operands in the same order as here. Argument validation is left out (the
// scripts only issue valid calls).
type refNetwork struct {
	resources []Resource
	flows     map[FlowID]*Flow
	order     []FlowID // deterministic iteration order of active flows
	nextID    FlowID
	now       float64
	onDone    CompletionHandler
	dirty     bool

	scales  []float64
	load    []int
	remCap  []float64
	cnt     []int
	started int64
	done    int64
	workMB  []float64
}

func newRef() *refNetwork { return &refNetwork{flows: make(map[FlowID]*Flow)} }

func (n *refNetwork) AddResource(name string, capacity, seekPenalty float64) ResourceID {
	n.resources = append(n.resources, Resource{Name: name, Capacity: capacity, SeekPenalty: seekPenalty})
	n.load = append(n.load, 0)
	n.remCap = append(n.remCap, 0)
	n.cnt = append(n.cnt, 0)
	n.workMB = append(n.workMB, 0)
	n.scales = append(n.scales, 1)
	return ResourceID(len(n.resources) - 1)
}

func (n *refNetwork) SetScale(id ResourceID, scale float64) {
	n.scales[int(id)] = scale
	n.dirty = true
}

func (n *refNetwork) WorkMB(id ResourceID) float64   { return n.workMB[int(id)] }
func (n *refNetwork) Now() float64                   { return n.now }
func (n *refNetwork) Started() int64                 { return n.started }
func (n *refNetwork) Completed() int64               { return n.done }
func (n *refNetwork) Active() int                    { return len(n.flows) }
func (n *refNetwork) OnComplete(h CompletionHandler) { n.onDone = h }

func (n *refNetwork) Start(path []ResourceID, sizeMB, delay float64, handle int) FlowID {
	id := n.nextID
	n.nextID++
	f := &Flow{
		ID:        id,
		Handle:    handle,
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
func (n *refNetwork) recomputeRates() {
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

func (n *refNetwork) nextEvent() float64 {
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

func (n *refNetwork) Step() bool {
	if len(n.flows) == 0 {
		return false
	}
	if n.dirty {
		n.recomputeRates()
	}
	dt := n.nextEvent()
	if math.IsInf(dt, 1) {
		panic("simnet: deadlock — active flows cannot progress")
	}
	if dt < 0 {
		dt = 0
	}
	n.advance(dt)
	n.completeFinished()
	return len(n.flows) > 0
}

func (n *refNetwork) advance(dt float64) {
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
				n.dirty = true
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

func (n *refNetwork) completeFinished() {
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

func (n *refNetwork) compactOrder() {
	keep := n.order[:0]
	for _, id := range n.order {
		if _, ok := n.flows[id]; ok {
			keep = append(keep, id)
		}
	}
	n.order = keep
}

func (n *refNetwork) Cancel(id FlowID) float64 {
	f, ok := n.flows[id]
	if !ok {
		return -1
	}
	delete(n.flows, id)
	n.compactOrder()
	n.dirty = true
	return f.remaining
}

func (n *refNetwork) Run() float64 {
	for n.Step() {
	}
	return n.now
}

func (n *refNetwork) RunUntil(deadline float64) bool {
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

// settle and activeFlows are what the differential driver reads between
// operations: rates as of now, for the in-flight flows in ID order.
func (n *refNetwork) settle() {
	if n.dirty {
		n.recomputeRates()
	}
}

func (n *refNetwork) activeFlows() []*Flow {
	out := make([]*Flow, 0, len(n.order))
	for _, id := range n.order {
		out = append(out, n.flows[id])
	}
	return out
}
