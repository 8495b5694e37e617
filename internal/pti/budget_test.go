package pti

import (
	"context"
	"errors"
	"strings"
	"testing"

	"joza/internal/core"
	"joza/internal/fragments"
)

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
	set := fragments.NewSet([]string{"SELECT * FROM t WHERE a IN ("})
	a := New(set, WithMaxTokens(16))
	c := NewCached(a, CacheQueryAndStructure, 64)
	query := "SELECT * FROM t WHERE a IN (1" + strings.Repeat(",1", 100) + ")"
	// A query over the token cap is never cached, so the budget fires on
	// every attempt — including repeats.
	for i := 0; i < 2; i++ {
		_, _, err := c.AnalyzeLazyCtx(context.Background(), query, nil, nil)
		if !errors.Is(err, core.ErrOverBudget) {
			t.Fatalf("attempt %d: err = %v, want core.ErrOverBudget", i, err)
		}
	}
}
