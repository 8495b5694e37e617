// The NTI matcher benchmark: before/after numbers for the bit-parallel
// engine and q-gram prefilter across request shapes (1, 10 and 50 input
// fields per check), plus the -diff mode CI uses to track the trajectory
// of these numbers across commits.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"joza/internal/nti"
)

// ntiShapeResult is the measured outcome for one request shape.
type ntiShapeResult struct {
	Inputs int `json:"inputs"`
	Checks int `json:"checks"`
	// SellersNsPerCheck is the cell-at-a-time banded engine without the
	// prefilter (the configuration predating both optimizations).
	SellersNsPerCheck float64 `json:"sellersNsPerCheck"`
	// BitParallelNsPerCheck is the default engine: q-gram prefilter plus
	// bit-parallel scan.
	BitParallelNsPerCheck float64 `json:"bitParallelNsPerCheck"`
	Speedup               float64 `json:"speedup"`
	// PrefilterRejectPct is the share of input×query pairs the prefilter
	// rejected in the default-engine run.
	PrefilterRejectPct float64 `json:"prefilterRejectPct"`
}

// ntiBenchResult is the -json section for the matcher benchmark.
type ntiBenchResult struct {
	Shapes []ntiShapeResult `json:"shapes"`
}

// ntiBenchQuery is a representative content query; one input per check
// occurs verbatim (the slug), the rest are benign fields that must be
// rejected as cheaply as possible.
const ntiBenchQuery = "SELECT p.id, p.title, p.body, u.display_name FROM posts p " +
	"JOIN users u ON u.id = p.author_id WHERE p.status = 'publish' " +
	"AND p.slug = 'spring-garden-checklist' ORDER BY p.created_at DESC LIMIT 10"

// benignValues are drawn per input field: realistic form values that do
// not occur in the query.
var benignValues = []string{
	"spring garden checklist ideas",
	"jane.doe@example.org",
	"4fa83b1c-9d02-4e31-8f5a-2c7d90e11b42",
	"Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36",
	"1717171717",
	"How do I reset my password?",
	"+1 (555) 013-7799",
	"742 Evergreen Terrace, Springfield",
	"session=9f8e7d6c5b4a;theme=dark;lang=en-US",
	"the quick brown fox jumps over the lazy dog",
}

// ntiBenchInputs builds the input list for one check of the given shape.
func ntiBenchInputs(rng *rand.Rand, shape int) []nti.Input {
	inputs := make([]nti.Input, shape)
	if shape == 1 {
		// A single benign field, so the 1-input shape times the matcher
		// rather than the exact fast path the slug would take.
		return []nti.Input{{Source: "get", Name: "q",
			Value: fmt.Sprintf("%s %05d", benignValues[rng.Intn(len(benignValues))], rng.Intn(100000))}}
	}
	// One field legitimately reaches the query (the slug): the exact fast
	// path handles it under every engine.
	inputs[0] = nti.Input{Source: "get", Name: "slug", Value: "spring-garden-checklist"}
	for i := 1; i < shape; i++ {
		v := benignValues[rng.Intn(len(benignValues))]
		// Vary most values so checks do not dedup into a handful of
		// groups — a real form posts distinct field contents.
		if i%3 != 0 {
			v = fmt.Sprintf("%s %05d", v, rng.Intn(100000))
		}
		inputs[i] = nti.Input{
			Source: "post",
			Name:   fmt.Sprintf("f%d", i),
			Value:  v,
		}
	}
	return inputs
}

// driveNTI runs every check through one analyzer three times and returns
// the best ns-per-check, so scheduler noise does not masquerade as a
// matcher regression in -diff.
func driveNTI(a *nti.Analyzer, sets [][]nti.Input) (float64, error) {
	ctx := context.Background()
	best := 0.0
	for round := 0; round < 3; round++ {
		start := time.Now()
		for _, inputs := range sets {
			res, err := a.AnalyzeCtx(ctx, ntiBenchQuery, nil, inputs, nil)
			if err != nil {
				return 0, err
			}
			if res.Attack {
				return 0, fmt.Errorf("benign bench inputs flagged: %+v", res.Reasons)
			}
		}
		perCheck := float64(time.Since(start)) / float64(len(sets))
		if round == 0 || perCheck < best {
			best = perCheck
		}
	}
	return best, nil
}

// runNTIBench measures the matcher before/after across request shapes.
func runNTIBench(checks int, seed int64) (*ntiBenchResult, error) {
	if checks < 1 {
		checks = 1
	}
	res := &ntiBenchResult{}
	fmt.Printf("nti matcher, %d checks per shape (ns/check):\n", checks)
	for _, shape := range []int{1, 10, 50} {
		rng := rand.New(rand.NewSource(seed + int64(shape)))
		sets := make([][]nti.Input, checks)
		for i := range sets {
			sets[i] = ntiBenchInputs(rng, shape)
		}
		sellers := nti.New(nti.WithSellersMatcher(), nti.WithoutPrefilter())
		before, err := driveNTI(sellers, sets)
		if err != nil {
			return nil, err
		}
		bitpar := nti.New()
		after, err := driveNTI(bitpar, sets)
		if err != nil {
			return nil, err
		}
		st := bitpar.Stats()
		rejectPct := 0.0
		if st.PrefilterChecks > 0 {
			rejectPct = 100 * float64(st.PrefilterRejects) / float64(st.PrefilterChecks)
		}
		sr := ntiShapeResult{
			Inputs:                shape,
			Checks:                checks,
			SellersNsPerCheck:     before,
			BitParallelNsPerCheck: after,
			Speedup:               before / after,
			PrefilterRejectPct:    rejectPct,
		}
		res.Shapes = append(res.Shapes, sr)
		fmt.Printf("  %2d inputs: sellers %9.0f  bitparallel+prefilter %9.0f  %5.1fx  (prefilter rejected %.0f%%)\n",
			shape, before, after, sr.Speedup, rejectPct)
	}
	fmt.Println()
	return res, nil
}

// runDiff compares the matcher-relevant fields of two -json reports and
// prints GitHub warning annotations on >20% regressions. It never fails
// the run: trajectory is visible, merges are not blocked.
func runDiff(oldPath, newPath string) error {
	const tolerance = 1.20
	load := func(path string) (*benchReport, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r benchReport
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	oldR, err := load(oldPath)
	if err != nil {
		return err
	}
	newR, err := load(newPath)
	if err != nil {
		return err
	}
	regressions, compared := 0, 0
	if oldR.NTIBench != nil && newR.NTIBench != nil {
		oldByShape := map[int]ntiShapeResult{}
		for _, s := range oldR.NTIBench.Shapes {
			oldByShape[s.Inputs] = s
		}
		for _, cur := range newR.NTIBench.Shapes {
			prev, ok := oldByShape[cur.Inputs]
			if !ok || prev.BitParallelNsPerCheck <= 0 {
				continue
			}
			compared++
			ratio := cur.BitParallelNsPerCheck / prev.BitParallelNsPerCheck
			fmt.Printf("diff: %2d inputs: %9.0f -> %9.0f ns/check (%+.1f%%)\n",
				cur.Inputs, prev.BitParallelNsPerCheck, cur.BitParallelNsPerCheck, (ratio-1)*100)
			if ratio > tolerance {
				regressions++
				fmt.Printf("::warning title=jozabench matcher regression::%d-input shape: %.0f ns/check vs %.0f previously (%+.1f%%, tolerance +20%%)\n",
					cur.Inputs, cur.BitParallelNsPerCheck, prev.BitParallelNsPerCheck, (ratio-1)*100)
			}
		}
	}
	if oldR.Scale != nil && newR.Scale != nil {
		oldBatch := map[int]batchSweepRow{}
		for _, b := range oldR.Scale.Batch {
			oldBatch[b.BatchSize] = b
		}
		for _, cur := range newR.Scale.Batch {
			prev, ok := oldBatch[cur.BatchSize]
			if !ok || prev.QPS <= 0 {
				continue
			}
			compared++
			// QPS regressing means the ratio drops below 1/tolerance.
			ratio := cur.QPS / prev.QPS
			fmt.Printf("diff: batch=%2d: %8.0f -> %8.0f q/s (%+.1f%%)\n",
				cur.BatchSize, prev.QPS, cur.QPS, (ratio-1)*100)
			if ratio < 1/tolerance {
				regressions++
				fmt.Printf("::warning title=jozabench batch throughput regression::batch=%d: %.0f q/s vs %.0f previously (%+.1f%%, tolerance -20%%)\n",
					cur.BatchSize, cur.QPS, prev.QPS, (ratio-1)*100)
			}
		}
		oldShards := map[int]shardSweepRow{}
		for _, s := range oldR.Scale.ShardSweep {
			oldShards[s.Shards] = s
		}
		for _, cur := range newR.Scale.ShardSweep {
			prev, ok := oldShards[cur.Shards]
			if !ok || prev.QPS <= 0 {
				continue
			}
			compared++
			ratio := cur.QPS / prev.QPS
			fmt.Printf("diff: %d shard(s): %8.0f -> %8.0f q/s (%+.1f%%)\n",
				cur.Shards, prev.QPS, cur.QPS, (ratio-1)*100)
			if ratio < 1/tolerance {
				regressions++
				fmt.Printf("::warning title=jozabench shard throughput regression::%d shard(s): %.0f q/s vs %.0f previously (%+.1f%%, tolerance -20%%)\n",
					cur.Shards, cur.QPS, prev.QPS, (ratio-1)*100)
			}
		}
	}
	switch {
	case compared == 0:
		fmt.Printf("diff: no comparable sections in %s and %s\n", oldPath, newPath)
	case regressions == 0:
		fmt.Println("diff: benchmark numbers within tolerance")
	}
	return nil
}
