package simnet

// Accessors only this package's tests read.

// Remaining reports the MB still to transfer.
func (f *Flow) Remaining() float64 { return f.remaining }

// Resource returns the definition of id.
func (n *Network) Resource(id ResourceID) Resource { return n.resources[id].Resource }

// Utilization reports the fraction of resource id's capacity used over the
// window [since, Now()]: work done divided by capacity times elapsed time.
// It returns 0 for an empty window.
func (n *Network) Utilization(id ResourceID, since float64) float64 {
	elapsed := n.now - since
	if elapsed <= 0 {
		return 0
	}
	return n.resources[id].workMB / (n.resources[id].Capacity * elapsed)
}

// RunUntil advances the simulation until the clock reaches deadline or no
// flows remain, whichever comes first. It reports whether flows remain.
func (n *Network) RunUntil(deadline float64) bool {
	for len(n.flows) > 0 && n.now < deadline && n.step(deadline) {
	}
	return len(n.flows) > 0
}
