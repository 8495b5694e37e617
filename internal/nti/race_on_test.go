//go:build race

package nti

// raceEnabled reports whether the race detector is active. sync.Pool
// deliberately drops items under the race detector, so the pooled
// trigram bitmap is reallocated at random there.
const raceEnabled = true
