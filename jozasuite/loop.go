package main

import (
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"joza"
)

// check is one generated guard call plus the verdict the program must
// return for it. The timed loops compare every verdict against attack.
type check struct {
	site   string
	query  string
	inputs []joza.Input
	attack bool
}

// hasInputValues mirrors the engine's NTI gate: NTI runs only when some
// captured input carries a non-empty value.
func (c *check) hasInputValues() bool {
	for _, in := range c.inputs {
		if in.Value != "" {
			return true
		}
	}
	return false
}

// stepFunc runs one check and returns the attack bit.
type stepFunc func(c *check) (attack bool, err error)

// subBits sets the histogram resolution: 2^subBits linear sub-buckets per
// power of two, so a recorded latency is off by at most 1/64 (~1.6%).
const subBits = 6

// histogram is a fixed-size log-linear latency histogram in nanoseconds.
// Recording is one array increment: the timed loops must not allocate, so
// that allocs_per_check counts only the program's allocations.
type histogram struct {
	counts [(64 - subBits + 1) << subBits]uint64
	n      uint64
	sumNs  uint64
}

func bucketOf(ns uint64) int {
	if ns < 2<<subBits {
		return int(ns)
	}
	shift := bits.Len64(ns) - subBits - 1
	return (shift+1)<<subBits + int(ns>>shift) - 1<<subBits
}

// bucketRange returns the lowest value of bucket i and its width.
func bucketRange(i int) (lo, width float64) {
	if i < 2<<subBits {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	return float64(uint64(i&(1<<subBits-1)+1<<subBits) << shift), float64(uint64(1) << shift)
}

func (h *histogram) record(d time.Duration) {
	ns := uint64(d)
	if d < 0 {
		ns = 0
	}
	h.counts[bucketOf(ns)]++
	h.n++
	h.sumNs += ns
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sumNs += o.sumNs
}

// quantile returns the q-quantile in nanoseconds (0 when empty),
// interpolating linearly inside the bucket that holds it.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if next := seen + float64(c); next > rank || next == float64(h.n) {
			lo, width := bucketRange(i)
			return lo + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return 0
}

func (h *histogram) meanNs() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sumNs) / float64(h.n)
}

// windowLen is the nominal length of the windows a timed phase is cut
// into; drive shortens it so that the phase holds a whole number of them.
const windowLen = 250 * time.Millisecond

// window is what one window of a timed phase measured.
type window struct {
	checks       uint64
	elapsed, cpu time.Duration // wall time and process user+sys CPU
	p50Ns, p90Ns float64
	// scale is the calibration factor measured right after the window, or
	// 1 when the phase runs without calibration.
	scale float64
}

// recorder is the caller's bookkeeping. Recording a check and closing a
// window touch only preallocated memory: the timed loop must not allocate,
// so that allocs_per_check counts only the program's allocations.
type recorder struct {
	hist       histogram // the checks of every closed window
	win        histogram // the open window's checks
	windows    []window  // preallocated with room for every window
	errs       uint64
	mismatches uint64
	firstErr   error
}

// step times one check, records its latency, checks its verdict and
// returns the time the verdict came back.
func (r *recorder) step(c *check, fn stepFunc) time.Time {
	t0 := time.Now()
	attack, err := fn(c)
	t1 := time.Now()
	r.win.record(t1.Sub(t0))
	switch {
	case err != nil:
		r.errs++
		if r.firstErr == nil {
			r.firstErr = err
		}
	case attack != c.attack:
		r.mismatches++
	}
	return t1
}

// closeWindow files the open window's statistics and folds its latencies
// into the phase's histogram.
func (r *recorder) closeWindow(elapsed, cpu time.Duration, scale float64) {
	r.windows = append(r.windows, window{
		checks: r.win.n, elapsed: elapsed, cpu: cpu,
		p50Ns: r.win.quantile(0.50), p90Ns: r.win.quantile(0.90),
		scale: scale,
	})
	r.hist.merge(&r.win)
	r.win = histogram{}
}

// loopResult is what one timed closed-loop phase measured.
type loopResult struct {
	recorder
	checks     uint64
	elapsed    time.Duration
	cpu        time.Duration // process user+sys CPU over the phase
	mallocs    uint64
	allocBytes uint64
	gcCPUFrac  float64 // GC CPU ÷ total CPU over the phase, from runtime/metrics
}

func (r *loopResult) failed() uint64 { return r.errs + r.mismatches }

// pool adds phase o's timings and counts to r; verdict failures are
// tallied separately.
func (r *loopResult) pool(o *loopResult) {
	r.hist.merge(&o.hist)
	r.windows = append(r.windows, o.windows...)
	r.checks += o.checks
	r.elapsed += o.elapsed
	r.cpu += o.cpu
	r.mallocs += o.mallocs
	r.allocBytes += o.allocBytes
}

// drive runs one closed-loop caller over stream, wrapping around, for dur:
// it issues the next check only after the previous verdict came back, as an
// application worker does. The phase is cut into equal windows of about
// windowLen, each closed after the first check that ends past its end.
// With cal set, the calibration runs after each window, outside its timing.
func drive(stream []check, dur time.Duration, fn stepFunc, cal *calibration) *loopResult {
	n := max(1, int((dur+windowLen/2)/windowLen))
	span := dur / time.Duration(n)
	res := &loopResult{recorder: recorder{windows: make([]window, 0, n)}}

	gcBefore := readGCMetrics()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	i := 0
	for k := 0; k < n; k++ {
		winStart, winCPU := time.Now(), processCPU()
		end := winStart.Add(span)
		var now time.Time
		for now.Before(end) {
			now = res.step(&stream[i], fn)
			if i++; i == len(stream) {
				i = 0
			}
		}
		elapsed, cpu := now.Sub(winStart), processCPU()-winCPU
		res.elapsed += elapsed
		res.cpu += cpu
		scale := 1.0
		if cal != nil {
			scale = cal.scale()
		}
		res.closeWindow(elapsed, cpu, scale)
	}
	runtime.ReadMemStats(&msAfter)
	gcAfter := readGCMetrics()

	res.checks = res.hist.n
	res.mallocs = msAfter.Mallocs - msBefore.Mallocs
	res.allocBytes = msAfter.TotalAlloc - msBefore.TotalAlloc
	res.gcCPUFrac = ratio(gcAfter[0]-gcBefore[0], gcAfter[1]-gcBefore[1])
	return res
}

// processCPU returns the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readGCMetrics returns cumulative GC CPU seconds and total CPU seconds as
// the runtime accounts them.
func readGCMetrics() [2]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 == len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// perWindow returns f of every window.
func perWindow(ws []window, f func(w *window) float64) []float64 {
	out := make([]float64, len(ws))
	for i := range ws {
		out[i] = f(&ws[i])
	}
	return out
}
