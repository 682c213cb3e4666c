//go:build !race

package plancache

const raceEnabled = false
