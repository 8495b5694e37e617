//go:build !race

package audit

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
