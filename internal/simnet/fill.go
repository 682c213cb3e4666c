package simnet

import (
	"math"
	"slices"
)

// recomputeRates assigns every transferring flow its max-min fair rate by
// progressive filling, in O(sum of path lengths + (bottleneck rounds + their
// requeued resources) x log touched resources). A lone flow — the only
// stream on every resource of its path — settles in one pass at its tightest
// resource's capacity, which is what the rounds would give it. The other
// flows' bottlenecks come off a min-heap keyed (share, resource index) — the
// reference's tie rule — where each resource a round changes is pushed anew
// under a fresh version and older entries are skipped when popped. Each
// float update keeps the operands, and each resource the update order
// (ascending flow ID), of the all-flows-per-round formulation in
// reference_test.go: rates are bit-identical to it.
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
	for _, f := range n.flows {
		f.frozen = f.delayLeft > 0 || f.remaining <= 0 // not transferring
		if f.frozen {
			continue
		}
		for _, i := range f.Path {
			if res[i].load == 0 {
				n.touched = append(n.touched, int(i))
			}
			res[i].load++
		}
	}
	for _, i := range n.touched {
		r := &res[i]
		effective := r.Capacity * r.scale
		r.remCap = effective / (1 + r.SeekPenalty*float64(r.load-1))
		r.cnt, r.ver = r.load, 0
	}
	// A private resource (load 1) can bottleneck only its own flow, at
	// remCap/1 == remCap, and nothing else moves it: each flow keeps just
	// its tightest private resource, lowest index on ties, and only while no
	// shared resource on its path starts with less room (that one's share
	// stays below it until the flow freezes). The rest drop out (cnt 0). A
	// lone flow — every resource private — settles here.
	left := 0
	for _, f := range n.flows {
		if f.frozen {
			continue
		}
		tight, shared := -1, math.Inf(1)
		for _, i := range f.Path {
			r := &res[i]
			switch {
			case r.load != 1:
				shared = min(shared, r.remCap)
			case tight < 0:
				tight = int(i)
			case r.remCap < res[tight].remCap || r.remCap == res[tight].remCap && int(i) < tight:
				res[tight].cnt, tight = 0, int(i)
			default:
				r.cnt = 0
			}
		}
		if math.IsInf(shared, 1) {
			f.frozen, f.rate = true, res[tight].remCap
			res[tight].cnt = 0
			continue
		}
		left++
		if tight >= 0 && res[tight].remCap > shared {
			res[tight].cnt = 0
		}
	}
	if left == 0 {
		return
	}
	// CSR slots and first heap entries of the resources still in play; all
	// their flows are unsettled.
	end, h := 0, n.heap[:0]
	for _, i := range n.touched {
		r := &res[i]
		if r.cnt == 0 {
			continue
		}
		r.pos = int32(end)
		end += int(r.load)
		h = append(h, shareEntry{r.remCap / float64(r.cnt), int32(i), 0})
	}
	n.byRes = slices.Grow(n.byRes[:0], end)[:end]
	for _, f := range n.flows {
		if f.frozen {
			continue
		}
		for _, i := range f.Path {
			if r := &res[i]; r.cnt > 0 {
				n.byRes[r.pos] = f
				r.pos++ // ends one past the resource's list
			}
		}
	}
	for k := len(h)/2 - 1; k >= 0; k-- {
		siftDown(h, k)
	}
	// Progressive filling: repeatedly saturate the tightest resource.
	for round := uint32(1); left > 0; round++ {
		if len(h) == 0 {
			// Unreachable: an unfrozen flow keeps some resource's cnt above
			// zero, and every such resource has a current entry.
			panic("simnet: unconstrained transferring flow")
		}
		top, last := h[0], len(h)-1
		h[0], h = h[last], h[:last]
		if last > 0 {
			siftDown(h, 0)
		}
		best := &res[top.res]
		if top.ver != best.ver {
			continue // the resource changed since this entry was pushed
		}
		// Freeze every unfrozen flow crossing the bottleneck at the share.
		changed := n.changed[:0]
		for _, f := range n.byRes[best.pos-best.load : best.pos] {
			if f.frozen {
				continue
			}
			f.frozen, f.rate = true, top.share
			left--
			for _, i := range f.Path {
				r := &res[i]
				r.remCap -= top.share
				if r.remCap < 0 {
					r.remCap = 0
				}
				r.cnt--
				if r.ver != round {
					r.ver = round
					changed = append(changed, int(i))
				}
			}
		}
		// Requeue every resource the round changed at its new share.
		for _, i := range changed {
			if r := &res[i]; r.cnt > 0 {
				h = append(h, shareEntry{r.remCap / float64(r.cnt), int32(i), round})
				siftUp(h, len(h)-1)
			}
		}
		n.changed = changed
	}
	n.heap = h
}

// shareEntry is one bottleneck-heap entry: resource res's per-flow share as
// of version ver (the filling round that last changed it).
type shareEntry struct {
	share float64
	res   int32
	ver   uint32
}

func (a shareEntry) less(b shareEntry) bool {
	return a.share < b.share || (a.share == b.share && a.res < b.res)
}

// siftUp and siftDown move entry k to its place through a hole, writing
// each displaced entry once.
func siftUp(h []shareEntry, k int) {
	e := h[k]
	for k > 0 {
		p := (k - 1) / 2
		if !e.less(h[p]) {
			break
		}
		h[k] = h[p]
		k = p
	}
	h[k] = e
}

func siftDown(h []shareEntry, k int) {
	e := h[k]
	for {
		c := 2*k + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(e) {
			break
		}
		h[k] = h[c]
		k = c
	}
	h[k] = e
}
