package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// deterministicMetrics are counts that repeat run to run on one toolchain:
// a move past the bound is a regression and fails -diff. Every other
// metric only warns, because wall-clock numbers move with the host.
var deterministicMetrics = map[string]bool{
	"allocs_per_check":               true,
	"daemon.request_bytes_per_check": true,
	"daemon.reply_bytes_per_check":   true,
}

// deterministicBound applies to deterministic per-layer counts, which
// BENCHMARK.json lists without a bound.
const deterministicBound = 0.02

// benchmarkDef is the part of BENCHMARK.json -diff reads.
type benchmarkDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type bound struct {
	better string
	share  float64
}

func loadBounds(path string) (map[string]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	out := map[string]bound{}
	for _, m := range def.EndToEnd {
		out[m.Name] = bound{m.Better, m.Bound}
	}
	for _, m := range def.PerLayer {
		if deterministicMetrics[m.Name] {
			out[m.Name] = bound{m.Better, deterministicBound}
		}
	}
	return out, nil
}

// worsening is how much cur is worse than old, as a share of old.
func worsening(old, cur float64, better string) float64 {
	d := cur - old
	if better == "higher" {
		d = -d
	}
	if old == 0 {
		if d > 0 {
			return math.Inf(1)
		}
		return 0
	}
	return d / math.Abs(old)
}

// runDiff compares every (workload, metric) pair present in both reports
// that has a bound. Deterministic counts past their bound fail the diff;
// timing metrics past theirs print a GitHub warning annotation.
func runDiff(boundsPath, oldPath, newPath string, out io.Writer) (int, error) {
	bounds, err := loadBounds(boundsPath)
	if err != nil {
		return 2, err
	}
	oldRep, err := readReport(oldPath)
	if err != nil {
		return 2, err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return 2, err
	}
	if oldRep.GoVersion != newRep.GoVersion {
		fmt.Fprintf(out, "::warning::reports come from %s and %s; deterministic counts can shift between toolchains\n",
			oldRep.GoVersion, newRep.GoVersion)
	}
	regressions := 0
	for _, wl := range sortedKeys(oldRep.Workloads) {
		cur, ok := newRep.Workloads[wl]
		if !ok {
			continue
		}
		old := oldRep.Workloads[wl]
		for _, name := range sortedKeys(old) {
			b, hasBound := bounds[name]
			nv, inNew := cur[name]
			if !hasBound || !inNew {
				continue
			}
			w := worsening(old[name], nv, b.better)
			status := "ok"
			switch {
			case w <= b.share:
			case deterministicMetrics[name]:
				status = "REGRESSION"
				regressions++
			default:
				status = "warning"
				fmt.Fprintf(out, "::warning::%s %s worse by %.1f%% (bound %.0f%%)\n", wl, name, 100*w, 100*b.share)
			}
			fmt.Fprintf(out, "%-10s %-32s %14.6g -> %14.6g  %+7.2f%%  %s\n", wl, name, old[name], nv, 100*w, status)
		}
	}
	if regressions > 0 {
		return 1, fmt.Errorf("%d deterministic metric(s) regressed past their bound", regressions)
	}
	return 0, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
