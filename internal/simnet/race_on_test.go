//go:build race

package simnet

// raceEnabled reports that the race detector is on, whose instrumentation
// allocates and so voids allocation counts.
const raceEnabled = true
