package main

import (
	"context"
	"fmt"
	"testing"
	"time"

	"joza/internal/fragments"
	"joza/internal/pti"
	"joza/internal/sqltoken"
)

// lexBenchResult is the outcome of the -lex micro-benchmark: the raw lexer
// cost per dialect, fresh and appended into a reused buffer, and the
// cached analyze fast path that must not lex (or allocate) at all. The
// append and cache-hit rows are assertions, not just measurements: the
// engine lexes every check into its pooled storage, so an allocation
// there is paid per check, and the whole point of the
// dialect-parameterized core is that the default deployment pays nothing
// for dialect dispatch.
type lexBenchResult struct {
	Rows []lexBenchRow `json:"rows"`
	// Append lexes into a reused buffer (Dialect.AppendLex), as the
	// engine's stages do; AllocsPerOp must be zero.
	Append []lexBenchRow `json:"append"`
	// CacheHit is the warm query-cache Analyze path: the verdict comes from
	// the cache, no lex runs, and AllocsPerOp must be zero.
	CacheHit lexBenchRow `json:"cacheHit"`
}

// lexBenchRow is one measured configuration.
type lexBenchRow struct {
	Dialect     string  `json:"dialect"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
	Tokens      int     `json:"tokens,omitempty"`
}

// lexBenchQuery exercises strings, placeholders, comments, operators and
// keywords — every character class whose handling the dialect governs.
const lexBenchQuery = "SELECT id, name FROM records WHERE name='joza' AND id=? ORDER BY id -- trailing\n LIMIT 5"

// runLexBench measures the per-dialect lexer and asserts that appending
// into a reused buffer and the cached analyze fast path stay
// allocation-free under dialect dispatch. A non-zero allocation count on
// either is an error: it means an allocation (a token slice, a
// composite-key build) landed on the per-check hot path.
func runLexBench(requests int) (*lexBenchResult, error) {
	iters := requests * 100
	if iters < 10000 {
		iters = 10000
	}
	res := &lexBenchResult{}
	fmt.Println("lexer micro-benchmark (dialect-dispatched core):")
	for _, d := range sqltoken.Dialects() {
		toks := d.Lex(lexBenchQuery)
		start := time.Now()
		for i := 0; i < iters; i++ {
			toks = d.Lex(lexBenchQuery)
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(iters)
		allocs := testing.AllocsPerRun(1000, func() { _ = d.Lex(lexBenchQuery) })
		res.Rows = append(res.Rows, lexBenchRow{
			Dialect: d.String(), NsPerOp: ns, AllocsPerOp: allocs, Tokens: len(toks),
		})
		fmt.Printf("  %-8s lex: %7.0f ns/op  %4.1f allocs/op  (%d tokens)\n", d, ns, allocs, len(toks))

		start = time.Now()
		for i := 0; i < iters; i++ {
			toks = d.AppendLex(toks[:0], lexBenchQuery)
		}
		ns = float64(time.Since(start).Nanoseconds()) / float64(iters)
		allocs = testing.AllocsPerRun(1000, func() { toks = d.AppendLex(toks[:0], lexBenchQuery) })
		res.Append = append(res.Append, lexBenchRow{
			Dialect: d.String(), NsPerOp: ns, AllocsPerOp: allocs, Tokens: len(toks),
		})
		fmt.Printf("  %-8s append-lex (reused buffer): %7.0f ns/op  %4.1f allocs/op\n", d, ns, allocs)
		if allocs != 0 {
			return nil, fmt.Errorf("%s: lexing into a reused buffer allocates (%.1f allocs/op); the per-check lex must stay zero-alloc", d, allocs)
		}
	}

	// The cached fast path: a warm query cache answers without lexing, and
	// the composite (dialect, query) key must not cost an allocation. Only
	// safe verdicts are cached, so the probe query must be fully covered.
	const hitQuery = "SELECT * FROM records WHERE ID=1 LIMIT 5"
	set := fragments.NewSet([]string{"SELECT * FROM records WHERE ID=", " LIMIT 5"})
	cached := pti.NewCached(pti.New(set), pti.CacheQueryAndStructure, 1024)
	cached.AnalyzeLazyCtx(context.Background(), hitQuery, nil, nil) // warm
	allocs := testing.AllocsPerRun(1000, func() { cached.AnalyzeLazyCtx(context.Background(), hitQuery, nil, nil) })
	start := time.Now()
	for i := 0; i < iters; i++ {
		cached.AnalyzeLazyCtx(context.Background(), hitQuery, nil, nil)
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(iters)
	res.CacheHit = lexBenchRow{Dialect: cached.Dialect().String(), NsPerOp: ns, AllocsPerOp: allocs}
	fmt.Printf("  cache-hit analyze (no lex): %7.0f ns/op  %4.1f allocs/op\n\n", ns, allocs)
	if allocs != 0 {
		return nil, fmt.Errorf("cached analyze fast path allocates (%.1f allocs/op); dialect dispatch must stay zero-alloc on cache hits", allocs)
	}
	return res, nil
}
