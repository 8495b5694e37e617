//go:build !race

package nti

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
