//go:build !race

package fragments

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
