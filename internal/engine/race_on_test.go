//go:build race

package engine

// raceEnabled reports whether the race detector is active. sync.Pool
// deliberately drops items under the race detector, so the pooled check
// state and its skeleton buffer are reallocated at random there.
const raceEnabled = true
