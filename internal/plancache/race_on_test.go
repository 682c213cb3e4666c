//go:build race

package plancache

// raceEnabled reports that the race detector is on, under which sync.Pool
// drops a quarter of its Puts and pool-reuse assertions cannot hold.
const raceEnabled = true
