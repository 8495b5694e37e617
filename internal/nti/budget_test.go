package nti

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"joza/internal/core"
)

func TestDPCellBudgetOverBudget(t *testing.T) {
	a := MustNew(WithDPCellBudget(1000))
	// No exact occurrence, similar lengths so the prune heuristic does not
	// fire, enough shared trigrams that the prefilter cannot reject, and
	// enough bytes that the DP blows the 1000-cell budget.
	value := strings.Repeat("cd", 299) + "zz"
	query := "SELECT * FROM t WHERE a = '" + strings.Repeat("cd", 300) + "'"
	_, err := a.AnalyzeCtx(context.Background(), query, nil,
		[]Input{{Source: "get", Name: "a", Value: value}}, nil)
	if !errors.Is(err, core.ErrOverBudget) {
		t.Fatalf("err = %v, want core.ErrOverBudget", err)
	}
}

func TestDPCellBudgetGenerousKeepsVerdicts(t *testing.T) {
	plain := MustNew()
	budgeted := MustNew(WithDPCellBudget(1 << 24))
	query := "SELECT * FROM users WHERE name = 'admin'' OR 1=1 --'"
	inputs := []Input{{Source: "get", Name: "name", Value: "admin' OR 1=1 --"}}
	want, err := plain.AnalyzeCtx(context.Background(), query, nil, inputs, nil)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	got, err := budgeted.AnalyzeCtx(context.Background(), query, nil, inputs, nil)
	if err != nil {
		t.Fatalf("budgeted: %v", err)
	}
	if got.Attack != want.Attack {
		t.Fatalf("budgeted verdict %v != plain %v", got.Attack, want.Attack)
	}
}

// changedText is an n-byte comment-like input with an apostrophe every
// 100 bytes, and its magic-quotes form: the shape of a long post body
// that reaches the query escaped, so it occurs there only changed.
func changedText(n int) (value, escaped string) {
	var b strings.Builder
	for b.Len() < n {
		b.WriteString("it's a long comment body with plain words in it, padded to a hundred bytes by this filler text ")
	}
	value = b.String()[:n]
	return value, strings.ReplaceAll(value, "'", `\'`)
}

func TestLongChangedInputIsOverBudget(t *testing.T) {
	a := MustNew()
	ctx := context.Background()
	for _, n := range []int{maxApproxInputLen, maxApproxInputLen + 1, 64 << 10} {
		value, escaped := changedText(n)
		query := "INSERT INTO comments (body) VALUES ('" + escaped + "')"
		res, err := a.AnalyzeCtx(ctx, query, nil, []Input{{Source: "post", Name: "body", Value: value}}, nil)
		if n <= maxApproxInputLen {
			// At the cap the matcher runs and marks the escaped copy.
			if err != nil || len(res.Markings) != 1 || res.Attack {
				t.Fatalf("%d bytes at the cap: markings %d, attack %v, err %v; want 1 marking, benign",
					n, len(res.Markings), res.Attack, err)
			}
			continue
		}
		if !errors.Is(err, core.ErrOverBudget) {
			t.Fatalf("%d-byte changed input: err = %v, want core.ErrOverBudget", n, err)
		}
		if len(res.Markings) != 0 || res.Attack {
			t.Fatalf("%d-byte changed input left a result: %+v", n, res)
		}
	}
	// Past the cap, a verbatim occurrence is still marked by the fast
	// path, and an input the prefilter rules out still passes.
	value, _ := changedText(64 << 10)
	res, err := a.AnalyzeCtx(ctx, "SELECT '"+value+"'", nil, []Input{{Source: "post", Name: "body", Value: value}}, nil)
	if err != nil || len(res.Markings) != 1 {
		t.Fatalf("verbatim 64 KB input: markings %d, err %v; want 1 marking", len(res.Markings), err)
	}
	unrelated := "SELECT '" + strings.Repeat("0123456789", 64<<10/10) + "'"
	if _, err := a.AnalyzeCtx(ctx, unrelated, nil, []Input{{Source: "post", Name: "body", Value: value}}, nil); err != nil {
		t.Fatalf("64 KB input absent from the query: %v", err)
	}
}

// BenchmarkLongChangedInput is the cost of one long input that occurs
// in the query only escaped: the matcher's work up to the cap, and the
// over-budget refusal (prefilter included) past it.
func BenchmarkLongChangedInput(b *testing.B) {
	a := MustNew()
	ctx := context.Background()
	for _, n := range []int{1 << 10, maxApproxInputLen, maxApproxInputLen + 1, 64 << 10} {
		value, escaped := changedText(n)
		query := "INSERT INTO comments (body) VALUES ('" + escaped + "')"
		in := []Input{{Source: "post", Name: "body", Value: value}}
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.AnalyzeCtx(ctx, query, nil, in, nil)
			}
		})
	}
}
