//go:build race

package sqltoken

// raceEnabled reports whether the race detector is active. sync.Pool
// deliberately drops items under the race detector, so Lex's pooled
// scratch is reallocated at random there.
const raceEnabled = true
