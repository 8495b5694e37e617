// Command jozasuite is the repository's pinned performance benchmark. It
// runs one named workload through a real Joza front door and prints every
// end-to-end metric, or with -trace 1 every per-layer metric, by name with
// its unit. BENCHMARK.json at the repository root pins the command, the
// workloads, the metrics, their directions and regression bounds.
//
//	bash jozasuite/run.sh --workload wp-read --seed 42 --seconds 20 --trace 0
//	bash jozasuite/run.sh --workload lab-attack --seed 7 --seconds 20 --trace 1
//
// run.sh builds this package from source into .bench_build/ at the
// repository root and runs it; inside this directory `go run . -workload
// wp-read` does the same, and `go test .` runs the suite's own tests. The
// last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}.
//
// # Workloads
//
//   - wp-read: an in-process joza.Guard over the workload site's fragments
//     (site source plus a 3000-fragment corpus), query+structure cache of
//     8192, per-call-site profiles, 1% writes. WordPress.com's traffic
//     shape: PTI query-cache hits, short numeric NTI inputs, profile
//     lookups and the fixed per-check engine cost dominate.
//   - wp-write: the same guard, half comment posts and half searches, with
//     4x the cache capacity in distinct INSERTs so no write hits the
//     exact-query cache. Every write takes a structure key, and NTI matches
//     40-word bodies against long queries.
//   - lab-attack: a Guard over the WP-SQLI-LAB fragments with trained
//     profiles and an audit log to a counting sink, fed the lab's benign
//     values, original exploits, NTI-evasion mutants, Taintless rewrites and
//     gap-class cases. The PTI cache stores only safe verdicts, so every
//     attack pays the full detection path.
//   - daemon-rtt: a HybridClient over a 2-connection daemon.Pool (no
//     micro-batcher) to an in-process daemon.Server on loopback TCP, 4%
//     writes. One wire round trip per check.
//
// The micro-batcher, ShardedPool and joza-proxy are out of scope: batched
// latency sits on the ~1 ms timer floor and does not repeat closely enough
// to gate on.
//
// # Load model
//
// Every workload is one closed-loop caller, because an application worker
// calls the guard synchronously and waits for the verdict. An open loop
// would measure its own lateness: sleeps on the reference VM have a ~1 ms
// floor, far above 2–50 µs checks. One caller, not one per CPU, leaves the
// second vCPU of the reference machine to the collector and, in
// daemon-rtt, the in-process server; two callers there measured the
// scheduler as much as the program. The remote workload's pool keeps its
// default two connections, which the caller takes in turn. The check
// stream is generated from -seed before timing. Set-up — profile training,
// construction of the guard or of the daemon, pool and client, and a
// warm-up pass over every distinct query that fills the caches and dials
// both pool connections — is measured as setup_s. Runs use GOGC=800 (see
// gcPercent).
//
// The timed phase lasts -seconds, split into five slices, each on a freshly
// set-up system. Each slice is cut into windows of about 250 ms, and after
// each window a fixed calibration workload runs outside the timing (see
// calibration). Every window's latency quantiles and CPU per check are
// scaled by the calibration measured next to it to the reference VM's
// quiet speed, and a timing metric is the median over the windows.
// Latencies go into preallocated histograms, so the timed loop allocates
// nothing and allocs_per_check counts only the program. Every verdict is
// compared with the expected one; any error or wrong verdict makes the run
// exit 1. The traced run's per-layer times are not scaled.
//
// setup_s is the median of the five set-ups' process CPU time (user+sys,
// every thread), scaled by the median calibration of the run. A set-up
// lasts 10–700 ms, one sample against a timing metric's hundred windows:
// its wall time took in every host stall that fell inside it, and one
// calibration run next to it was as noisy as the set-up itself: scaled
// wall times moved setup_s's median by 16% between two back-to-back sets
// of ten runs of the same code on the reference VM.
//
// The tail is reported at p90, and there is no throughput metric. With one
// closed-loop caller, checks per second is the reciprocal of the mean
// latency, and on the reference VM the host now and then stalls the
// process for a millisecond or more without counting it as CPU time: such
// stalls moved the mean, and the p99 of daemon-rtt, by 20–45% between runs
// of the same code while the median, the p90 and the CPU per check held
// still. cpu_us_per_check is the cost a deployment pays per check.
//
// -trace 1 is the traced run. It times, from this package's own files, the
// calls into each layer's public functions: a replay of the check stream
// through the calls engine.Check makes (pti.Cached, nti.Analyzer, profile
// lookup) and through the daemon pool, standalone timings over the
// workload's distinct queries, and counters from existing Stats methods.
// The guard's own trace stage histograms are printed beside them.
//
// # Comparing two commits
//
// Check out the parent and the change side by side, then alternate:
//
//	for seed in 1 2 3 4 5 6 7 8 9 10; do
//	  (cd parent && bash jozasuite/run.sh --workload wp-read --seed $seed --seconds 20 --trace 0 | tail -1)
//	  (cd change && bash jozasuite/run.sh --workload wp-read --seed $seed --seconds 20 --trace 0 | tail -1)
//	done
//
// -report merges a run's metrics into a suite report file, one object per
// workload; -diff old.json new.json compares two reports against the
// BENCHMARK.json bounds and exits 1 when a deterministic count regresses.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// metricSpec is one reported metric; BENCHMARK.json lists the same names
// and units.
type metricSpec struct {
	name, unit string
}

var endToEndMetrics = []metricSpec{
	{"check_p50_us", "us"},
	{"check_p90_us", "us"},
	{"cpu_us_per_check", "us"},
	{"allocs_per_check", "allocs"},
	{"alloc_bytes_per_check", "B"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
}

// setupRepeats is how many times an end-to-end run sets the system up; it
// reports the median set-up time.
const setupRepeats = 5

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jozasuite:", err)
	}
	os.Exit(code)
}

const usage = `usage: jozasuite -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-report FILE]
       jozasuite -diff OLD.json NEW.json [-bounds BENCHMARK.json]

Runs one workload through a real Joza front door as one closed-loop caller
and prints every metric by name with its unit; the last output line is the
JSON result. -trace 1 prints the per-layer metrics instead. Exits 1 on any
wrong verdict. Workloads: wp-read, wp-write, lab-attack, daemon-rtt (see
the package documentation for why each exists). Out of scope: the
micro-batcher, ShardedPool and joza-proxy.

`

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("jozasuite", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), usage)
		fs.PrintDefaults()
	}
	name := fs.String("workload", "", "workload to run: wp-read, wp-write, lab-attack or daemon-rtt")
	seed := fs.Int64("seed", 42, "seed the check stream is generated from")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (traced run)")
	reportPath := fs.String("report", "", "merge this run's metrics into the suite report FILE")
	diff := fs.Bool("diff", false, "compare two suite reports given as arguments")
	bounds := fs.String("bounds", "BENCHMARK.json", "with -diff: benchmark definition holding the regression bounds")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 2, err
	}
	if *diff {
		if fs.NArg() != 2 {
			return 2, fmt.Errorf("-diff wants two report files, got %d arguments", fs.NArg())
		}
		return runDiff(*bounds, fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fs.Usage()
		return 2, errors.New("bad arguments")
	}
	wl, err := findWorkload(*name)
	if err != nil {
		return 2, err
	}
	res, err := runWorkload(wl, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, stdout)
	if err != nil {
		return 1, err
	}
	if *reportPath != "" {
		if err := mergeReport(*reportPath, wl.name, *seed, res); err != nil {
			return 1, err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d checks failed or returned a wrong verdict", res.Failed, res.Attempted)
	}
	return 0, nil
}

// runWorkload generates the workload's inputs from seed, measures it and
// prints the human-readable report. A wrong verdict during set-up is an
// error; wrong verdicts in the timed phases leave Correct false.
func runWorkload(wl workloadSpec, seed int64, dur time.Duration, traced bool, out io.Writer) (*result, error) {
	in, err := wl.gen(seed)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", wl.name, err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(gcPercent))
	fmt.Fprintf(out, "%s: seed %d, %d checks in the stream, %d distinct queries, 1 caller, %v timed, %s, GOMAXPROCS %d, GOGC %d\n",
		wl.name, seed, len(in.stream), len(in.distinct), dur, runtime.Version(), runtime.GOMAXPROCS(0), gcPercent)
	t := new(tally)
	var vals map[string]float64
	specs := endToEndMetrics
	if traced {
		specs = perLayerMetrics
		vals, err = measureLayers(in, dur, t, out)
	} else {
		vals, err = measureEndToEnd(in, dur, t, out)
	}
	if err != nil {
		return nil, err
	}
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	if t.failed > 0 {
		fmt.Fprintf(out, "FAILED: %d of %d checks; first: %v\n", t.failed, t.attempted, t.firstErr)
	}
	for _, m := range specs {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "  %-34s %16.6g %s\n", m.name, v, m.unit)
	}
	return res, nil
}

// measureEndToEnd splits the timed phase into setupRepeats slices, each
// on a freshly set-up system, so set-up is sampled across the whole run
// instead of in one burst. A timing metric is the median over the windows
// of every slice; setup_s is the median set-up CPU time, scaled by the
// run's median calibration.
func measureEndToEnd(in *inputs, dur time.Duration, t *tally, out io.Writer) (map[string]float64, error) {
	cal := newCalibration()
	var setupCPU, heapMB []float64
	r := new(loopResult)
	for i := 0; i < setupRepeats; i++ {
		before := liveHeap()
		start := processCPU()
		sys, err := build(in, false, t)
		if err != nil {
			return nil, err
		}
		setupCPU = append(setupCPU, (processCPU() - start).Seconds())
		heapMB = append(heapMB, (liveHeap()-before)/(1<<20))
		p := drive(in.stream, dur/setupRepeats, sys.step, cal)
		sys.close()
		t.add(p)
		r.pool(p)
	}
	if r.checks == 0 {
		return nil, errors.New("no check completed in the timed phase")
	}
	n := float64(r.checks)
	scales := perWindow(r.windows, func(w *window) float64 { return w.scale })
	fmt.Fprintf(out, "  checks_timed %d over %v in %d windows; calibration scale p10 %.3f p50 %.3f p90 %.3f; set-up CPU %.3g s\n",
		r.checks, r.elapsed.Round(time.Millisecond), len(r.windows),
		quantile(scales, 0.1), median(scales), quantile(scales, 0.9), setupCPU)
	return map[string]float64{
		"check_p50_us": median(perWindow(r.windows, func(w *window) float64 { return w.p50Ns * w.scale })) / 1e3,
		"check_p90_us": median(perWindow(r.windows, func(w *window) float64 { return w.p90Ns * w.scale })) / 1e3,
		"cpu_us_per_check": median(perWindow(r.windows, func(w *window) float64 {
			return float64(w.cpu.Nanoseconds()) / float64(w.checks) * w.scale
		})) / 1e3,
		"allocs_per_check":      float64(r.mallocs) / n,
		"alloc_bytes_per_check": float64(r.allocBytes) / n,
		"setup_s":               median(setupCPU) * median(scales),
		"heap_live_mb":          median(heapMB),
	}, nil
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// suiteReport is the -report file: the metrics of each workload's latest
// run, plus what they were measured with.
type suiteReport struct {
	GoVersion string                        `json:"goVersion"`
	NumCPU    int                           `json:"nproc"`
	Seed      int64                         `json:"seed"`
	Workloads map[string]map[string]float64 `json:"workloads"`
}

func readReport(path string) (*suiteReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &r, nil
}

// mergeReport adds res's metrics to the report at path under workload,
// creating the file if needed. End-to-end and per-layer metrics of the
// same workload accumulate in one object.
func mergeReport(path, workload string, seed int64, res *result) error {
	rep, err := readReport(path)
	if errors.Is(err, os.ErrNotExist) {
		rep, err = &suiteReport{}, nil
	}
	if err != nil {
		return err
	}
	rep.GoVersion, rep.NumCPU, rep.Seed = runtime.Version(), runtime.NumCPU(), seed
	if rep.Workloads == nil {
		rep.Workloads = map[string]map[string]float64{}
	}
	m := rep.Workloads[workload]
	if m == nil {
		m = map[string]float64{}
		rep.Workloads[workload] = m
	}
	for name, v := range res.Metrics {
		m[name] = v.Value
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
