package main

import (
	"crypto/sha256"
	"slices"
	"strconv"
	"time"
)

// calibrationNominal is about the fastest a calibration run went on the
// reference VM (2 vCPUs of a shared Xeon), when its neighbours were quiet;
// a typical run there takes 5–6 ms. Timing metrics are reported at that
// speed.
const calibrationNominal = 4 * time.Millisecond

// calibration is a fixed piece of work that uses only the standard library:
// hash-map lookups over string keys in a working set larger than a core's
// L2 cache, sorting a copy of a string slice, and SHA-256 over a buffer.
// The benchmark times it after each window.
//
// On a shared host, other tenants slow the memory system for stretches of
// tens of seconds, by a third or more. That moves every timing metric of a
// run together, and moves this work too; a pure ALU loop barely moves.
// A window's timings are therefore multiplied by calibrationNominal over
// the calibration time measured next to it, and set-up times by the run's
// median of that factor. This code is not the program's, so a change to
// the program does not move it.
type calibration struct {
	keys   []string
	index  map[string]int
	words  []string
	sorted []string // reused by the sort, so that a run allocates nothing
	blob   []byte
}

const (
	calibrationKeys    = 50000
	calibrationLookups = 12000
	calibrationWords   = 2000
	calibrationSorts   = 8
)

func newCalibration() *calibration {
	c := &calibration{
		index:  make(map[string]int, calibrationKeys),
		sorted: make([]string, calibrationWords),
		blob:   make([]byte, 16<<10),
	}
	for i := 0; i < calibrationKeys; i++ {
		k := "option_" + strconv.Itoa(i*7919%100003)
		c.keys = append(c.keys, k)
		c.index[k] = i
	}
	for i := 0; i < calibrationWords; i++ {
		c.words = append(c.words, "term"+strconv.Itoa(i*104729%calibrationWords))
	}
	return c
}

// calibrationSink keeps the calibration's results alive.
var calibrationSink int

// run does the fixed work once and returns how long it took.
func (c *calibration) run() time.Duration {
	start := time.Now()
	x, s := uint64(1), 0
	for i := 0; i < calibrationLookups; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		s += c.index[c.keys[(x>>33)%calibrationKeys]]
	}
	for i := 0; i < calibrationSorts; i++ {
		copy(c.sorted, c.words)
		slices.Sort(c.sorted)
		sum := sha256.Sum256(c.blob)
		s += len(c.sorted[0]) + int(sum[0])
	}
	calibrationSink += s
	return time.Since(start)
}

// scale runs the calibration and returns the factor that takes a time
// measured now to the reference VM's quiet speed. It allocates nothing,
// so calibrating between windows adds nothing to allocs_per_check.
func (c *calibration) scale() float64 {
	return float64(calibrationNominal) / float64(c.run())
}
