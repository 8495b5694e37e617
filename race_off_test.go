//go:build !race

package joza_test

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
