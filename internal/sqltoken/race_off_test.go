//go:build !race

package sqltoken

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
