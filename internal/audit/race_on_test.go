//go:build race

package audit

// raceEnabled reports whether the race detector is active. sync.Pool
// deliberately drops items under the race detector, so pooled line
// buffers are reallocated at random there.
const raceEnabled = true
