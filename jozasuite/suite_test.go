package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// shortRun is the timed-phase length of the tests' suite runs: long
// enough that wp-write's allocations per check settle within 1% of a
// 20 s run, since its cache state keeps moving for the first second of
// each slice.
const shortRun = 2 * time.Second

// loadBenchmark reads the metric names and units BENCHMARK.json pins.
func loadBenchmark(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range def.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func checkMetrics(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for name, unit := range want {
		got, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s not printed", name)
			continue
		}
		if got.Unit != unit {
			t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", name, got.Unit, unit)
		}
	}
}

// TestSuite runs every workload briefly, end to end and traced. Both runs
// must print every metric BENCHMARK.json names with its unit and return
// only correct verdicts — the traced run's replays included. The
// deterministic counts are then diffed against the committed baseline.
func TestSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := loadBenchmark(t)
	report := filepath.Join(t.TempDir(), "report.json")
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var out bytes.Buffer
				res, err := runWorkload(wl, 42, shortRun, traced, &out)
				if err != nil {
					t.Fatalf("traced=%v: %v\n%s", traced, err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: %d of %d checks failed\n%s", traced, res.Failed, res.Attempted, out.String())
				}
				if traced {
					checkMetrics(t, res, perLayer)
					if d := res.Metrics["daemon.dials"].Value; d != poolConns {
						t.Errorf("daemon.dials = %v, want %d", d, poolConns)
					}
				} else {
					checkMetrics(t, res, endToEnd)
				}
				if err := mergeReport(report, wl.name, 42, res); err != nil {
					t.Fatal(err)
				}
			}
		})
	}

	t.Run("baseline", func(t *testing.T) {
		const baseline = "testdata/suite_baseline.json"
		base, err := readReport(baseline)
		if err != nil {
			t.Fatal(err)
		}
		if base.GoVersion != runtime.Version() {
			t.Skipf("baseline was recorded with %s, running %s: allocation counts differ across toolchains", base.GoVersion, runtime.Version())
		}
		if raceEnabled {
			t.Skip("the race detector changes allocation counts")
		}
		var out bytes.Buffer
		code, err := runDiff("../BENCHMARK.json", baseline, report, &out)
		if code != 0 {
			t.Fatalf("diff against %s: exit %d, %v\n%s", baseline, code, err, out.String())
		}
	})
}

// TestWrongVerdictFails flips the expected verdict of one check in the
// timed stream: the run must count it and report itself incorrect, and
// the command must exit non-zero.
func TestWrongVerdictFails(t *testing.T) {
	flipped := workloadSpec{name: "lab-attack", gen: func(seed int64) (*inputs, error) {
		in, err := genLabAttack(seed)
		if err == nil {
			in.stream[0].attack = !in.stream[0].attack
		}
		return in, err
	}}
	res, err := runWorkload(flipped, 1, shortRun, false, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("flipped verdict went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}

	var out bytes.Buffer
	code, _ := run([]string{"-workload", "no-such-workload"}, &out)
	if code == 0 {
		t.Errorf("unknown workload exited 0")
	}
}

// TestRecordingAllocatesNothing pins the property allocs_per_check relies
// on: timing, recording and checking one verdict, closing a window and
// calibrating allocate nothing.
func TestRecordingAllocatesNothing(t *testing.T) {
	const runs = 1000
	r := &recorder{windows: make([]window, 0, runs+1)}
	c := &check{query: "SELECT 1", attack: true}
	stub := func(*check) (bool, error) { return true, nil }
	if n := testing.AllocsPerRun(runs, func() { r.step(c, stub) }); n != 0 {
		t.Errorf("recorder.step allocates %v times per check", n)
	}
	if n := testing.AllocsPerRun(runs, func() { r.step(c, stub); r.closeWindow(time.Millisecond, time.Millisecond, 1) }); n != 0 {
		t.Errorf("recorder.closeWindow allocates %v times per window", n)
	}
	cal := newCalibration()
	if n := testing.AllocsPerRun(10, func() { cal.scale() }); n != 0 {
		t.Errorf("calibration.scale allocates %v times", n)
	}
	if r.mismatches != 0 || r.errs != 0 || r.hist.n != 2*runs+2 || len(r.windows) != runs+1 {
		t.Errorf("stub checks miscounted: %d recorded in %d windows, %d mismatches, %d errors",
			r.hist.n, len(r.windows), r.mismatches, r.errs)
	}
}

// TestDriveWindows checks that a timed phase is cut into whole windows
// that hold every check.
func TestDriveWindows(t *testing.T) {
	stream := []check{{query: "SELECT 1"}, {query: "SELECT 2", attack: true}}
	stub := func(c *check) (bool, error) { return c.attack, nil }
	r := drive(stream, 3*windowLen, stub, nil)
	if len(r.windows) != 3 {
		t.Fatalf("%d windows, want 3", len(r.windows))
	}
	var n uint64
	for _, w := range r.windows {
		if w.checks == 0 || w.elapsed < windowLen/2 || w.elapsed > 2*windowLen {
			t.Errorf("window %+v: want checks and about %v", w, windowLen)
		}
		n += w.checks
	}
	if n != r.checks || r.failed() != 0 {
		t.Errorf("windows hold %d checks, phase %d, failed %d", n, r.checks, r.failed())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for ns := 1; ns <= 100000; ns++ {
		h.record(time.Duration(ns))
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.98 || got > want*1.02 {
			t.Errorf("p%v = %v, want %v within 2%%", q*100, got, want)
		}
	}
	if got := h.meanNs(); got != 50000.5 {
		t.Errorf("mean = %v, want 50000.5", got)
	}
}

func TestDiffGatesDeterministicCounts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, allocs, p50 float64) string {
		path := filepath.Join(dir, name)
		rep := suiteReport{GoVersion: runtime.Version(), Workloads: map[string]map[string]float64{
			"wp-read": {"allocs_per_check": allocs, "check_p50_us": p50},
		}}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", 10, 5)

	var out bytes.Buffer
	if code, err := runDiff("../BENCHMARK.json", old, write("slow.json", 10, 50), &out); code != 0 {
		t.Errorf("a slower p50 must only warn: exit %d, %v", code, err)
	}
	if !strings.Contains(out.String(), "::warning::wp-read check_p50_us") {
		t.Errorf("no warning for the slower p50:\n%s", out.String())
	}
	if code, _ := runDiff("../BENCHMARK.json", old, write("allocs.json", 11, 5), new(bytes.Buffer)); code != 1 {
		t.Errorf("10%% more allocations per check must fail the diff, exit %d", code)
	}
	if code, _ := runDiff("../BENCHMARK.json", old, write("fewer.json", 9, 5), new(bytes.Buffer)); code != 0 {
		t.Errorf("fewer allocations must pass, exit %d", code)
	}
}
