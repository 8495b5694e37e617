//go:build !race

package pti

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
