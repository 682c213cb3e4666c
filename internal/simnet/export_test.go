package simnet

// Accessors only this package's tests read.

// Remaining reports the MB still to transfer.
func (f *Flow) Remaining() float64 { return f.remaining }

// Resource returns the definition of id.
func (n *Network) Resource(id ResourceID) Resource { return n.resources[id].Resource }

// RunUntil advances the simulation until the clock reaches deadline or no
// flows remain, whichever comes first. It reports whether flows remain.
func (n *Network) RunUntil(deadline float64) bool {
	for len(n.flows) > 0 && n.now < deadline && n.step(deadline) {
	}
	return len(n.flows) > 0
}
