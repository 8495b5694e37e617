//go:build race

package pti

// raceEnabled reports whether the race detector is active. sync.Pool
// deliberately drops items under the race detector, so the pooled cover
// table is reallocated at random there.
const raceEnabled = true
