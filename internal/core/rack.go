package core

import (
	"context"
	"slices"

	"opass/internal/dfs"
)

// This file implements the graded-locality tier (node-local > rack-local >
// remote) on top of the binary local/remote model of the paper. The node
// tier stays exactly the paper's §IV formulation — the flow network and
// Algorithm 1 run unchanged over node-local edges only, preserving their
// optimality and the full-size ownership invariant. Rack awareness enters
// as a second, strictly weaker tier consulted only where the paper already
// falls back to a coin flip: tasks the solver leaves unmatched are steered
// to an under-quota process in a rack holding their data before the random
// repair crosses an uplink, and the dynamic scheduler's steal rule breaks
// node-tier ties by rack-local bytes. With a single rack (the paper's
// topology) every rack edge vanishes and all of this is a no-op, so plans
// stay byte-identical to the rack-oblivious planner — the golden parity
// tests prove it.

// RackTiered reports whether the problem carries a rack map spanning more
// than one rack. Single-rack maps are equivalent to no map at all: every
// remote read stays inside the one rack, so the tier cannot change any
// decision and is disabled outright.
func (p *Problem) RackTiered() bool {
	if len(p.NodeRack) == 0 {
		return false
	}
	for _, r := range p.NodeRack[1:] {
		if r != p.NodeRack[0] {
			return true
		}
	}
	return false
}

// SetNodeRacksFromView fills NodeRack from a cluster view's rack map. Views
// spanning a single rack leave NodeRack nil, keeping the problem — and its
// canonical encoding — identical to a rack-oblivious one.
func (p *Problem) SetNodeRacksFromView(view dfs.ClusterView) {
	n := view.NumNodes()
	racks := make([]int, n)
	multi := false
	for i := 0; i < n; i++ {
		racks[i] = view.RackOf(i)
		if racks[i] != racks[0] {
			multi = true
		}
	}
	if multi {
		p.NodeRack = racks
	} else {
		p.NodeRack = nil
	}
}

// buildRackTier populates the index's rack-tier edges: an edge (p, t)
// weighted by the bytes of task t's inputs that have a replica in process
// p's rack on some node other than p's own. Inputs with a replica on p's
// node are excluded — they belong to the node tier — so for any (p, t) the
// node, rack, and remote byte counts partition the task's total size.
func (ix *LocalityIndex) buildRackTier(ctx context.Context) error {
	p := ix.p
	if !p.RackTiered() {
		return nil
	}
	ix.rackTiered = true

	// Processes per rack, rank-ascending (ProcNode order).
	rackOf := make([]int, len(p.ProcNode))
	for proc, node := range p.ProcNode {
		rackOf[proc] = p.NodeRack[node]
	}
	procsInRack := groupRanks(rackOf, slices.Max(p.NodeRack)+1)

	// No edge bound is passed: a tight one needs the per-input rack dedupe
	// below, so a cold buffer grows by append instead.
	return ix.buildTier(ctx, &ix.buf.byTaskRack, 0, func(b *indexBuf, t int) {
		for _, in := range p.Tasks[t].Inputs {
			replicas := p.FS.Replicas(in.Chunk)
			b.racks = b.racks[:0]
			for _, node := range replicas {
				if node >= 0 && node < len(p.NodeRack) && !slices.Contains(b.racks, p.NodeRack[node]) {
					b.racks = append(b.racks, p.NodeRack[node])
				}
			}
			for _, r := range b.racks {
				for _, proc := range procsInRack[r] {
					if !slices.Contains(replicas, p.ProcNode[proc]) { // else node tier, not rack tier
						b.add(proc, in.SizeMB)
					}
				}
			}
		}
	})
}

// RackTiered reports whether the index carries rack-tier edges.
func (ix *LocalityIndex) RackTiered() bool { return ix.rackTiered }

// TaskRackEdges returns task t's rack-tier edges in ascending process
// order, or nil when the problem is not rack-tiered. The slice is a
// read-only view owned by the index.
func (ix *LocalityIndex) TaskRackEdges(t int) []LocalityEdge {
	if !ix.rackTiered {
		return nil
	}
	return ix.buf.byTaskRack.Row(t)
}

// RackCoLocatedMB returns the rack-tier bytes for (proc, task): input data
// with a replica in proc's rack but none on proc's node. Zero when the
// problem is not rack-tiered.
func (ix *LocalityIndex) RackCoLocatedMB(proc, task int) float64 {
	if !ix.rackTiered {
		return 0
	}
	return mbOf(ix.buf.byTaskRack.Row(task), proc)
}
