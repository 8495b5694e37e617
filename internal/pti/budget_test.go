package pti

import (
	"context"
	"errors"
	"strings"
	"testing"

	"joza/internal/core"
	"joza/internal/fragments"
)

func TestPTIMaxQueryBytesOverBudget(t *testing.T) {
	set := fragments.NewSet([]string{"SELECT * FROM t WHERE a = "})
	a := New(set, WithMaxQueryBytes(1024))
	query := "SELECT * FROM t WHERE a = '" + strings.Repeat("x", 4096) + "'"
	_, err := a.AnalyzeCtx(context.Background(), query, nil, nil)
	if !errors.Is(err, core.ErrOverBudget) {
		t.Fatalf("err = %v, want core.ErrOverBudget", err)
	}
	if _, err := a.AnalyzeCtx(context.Background(), "SELECT * FROM t WHERE a = 1", nil, nil); err != nil {
		t.Fatalf("under cap: %v", err)
	}
}

func TestPTIMaxTokensOverBudget(t *testing.T) {
	set := fragments.NewSet([]string{"SELECT 1"})
	a := New(set, WithMaxTokens(16))
	query := "SELECT " + strings.Repeat("1,", 100) + "1"
	_, err := a.AnalyzeCtx(context.Background(), query, nil, nil)
	if !errors.Is(err, core.ErrOverBudget) {
		t.Fatalf("err = %v, want core.ErrOverBudget", err)
	}
}

func TestPTIBudgetsPropagateThroughCache(t *testing.T) {
	set := fragments.NewSet([]string{"SELECT * FROM t WHERE a = "})
	a := New(set, WithMaxQueryBytes(1024))
	c := NewCached(a, CacheQueryAndStructure, 64)
	query := "SELECT * FROM t WHERE a = '" + strings.Repeat("x", 4096) + "'"
	// A hostile oversized query always misses the cache, so the budget
	// fires on every attempt — including repeats.
	for i := 0; i < 2; i++ {
		_, _, err := c.AnalyzeLazyCtx(context.Background(), query, nil, nil)
		if !errors.Is(err, core.ErrOverBudget) {
			t.Fatalf("attempt %d: err = %v, want core.ErrOverBudget", i, err)
		}
	}
}

// TestCachedRefusesOverCapBeforeWork pins where the byte cap bites on the
// cached path: before the cache lookup, so an oversized query costs
// neither a structure key nor a lex, only the refusal itself. The
// many-token IN list is the shape that made the pre-work expensive.
func TestCachedRefusesOverCapBeforeWork(t *testing.T) {
	set := fragments.NewSet([]string{"SELECT * FROM t WHERE a IN ("})
	query := "SELECT * FROM t WHERE a IN (1" + strings.Repeat(",1", 1<<15) + ")"
	for _, mode := range []CacheMode{CacheNone, CacheQuery, CacheQueryAndStructure} {
		c := NewCached(New(set, WithMaxQueryBytes(1024)), mode, 64)
		allocs := testing.AllocsPerRun(20, func() {
			_, toks, err := c.AnalyzeLazyCtx(context.Background(), query, nil, nil)
			if !errors.Is(err, core.ErrOverBudget) || toks != nil {
				t.Fatalf("%s: toks %d, err %v; want an over-budget refusal before lexing", mode, len(toks), err)
			}
		})
		// Only the refusal's error value may allocate (four allocations,
		// five under the race detector); lexing the query would cost dozens.
		if allocs > 6 {
			t.Errorf("%s: %.0f allocations per refusal, want at most 6", mode, allocs)
		}
		if st := c.Stats(); st != (CacheStats{}) {
			t.Errorf("%s: refused query reached the cache: %+v", mode, st)
		}
	}
}
