package nti

import (
	"context"
	"errors"
	"strings"
	"testing"

	"joza/internal/core"
)

func TestExactOccurrencesCoalesceIntoRegions(t *testing.T) {
	// A 1-byte input against a repetitive query used to mark every
	// occurrence individually; overlapping and adjacent zero-distance
	// spans must coalesce into one marking per covered region.
	a := MustNew()
	q := "SELECT * FROM t WHERE a='" + strings.Repeat("x", 100) + "'"
	res := a.Analyze(q, nil, inputs("v", "x"))
	if len(res.Markings) != 1 {
		t.Fatalf("markings = %d, want 1 coalesced region: %+v", len(res.Markings), res.Markings)
	}
	m := res.Markings[0]
	if q[m.Span.Start:m.Span.End] != strings.Repeat("x", 100) {
		t.Errorf("region = %+v, want exactly the 100-byte stretch", m)
	}
}

func TestExactOverlappingOccurrencesCoalesce(t *testing.T) {
	// "xx" in "xxxx" overlaps at every offset: one region covering all of
	// it, not three sliding spans.
	a := MustNew()
	q := "SELECT * FROM t WHERE a='xxxx'"
	res := a.Analyze(q, nil, inputs("v", "xx"))
	if len(res.Markings) != 1 {
		t.Fatalf("markings = %d, want 1: %+v", len(res.Markings), res.Markings)
	}
	if got := res.Markings[0].Span.Len(); got != 4 {
		t.Errorf("region length = %d, want 4", got)
	}
}

func TestExactSeparatedOccurrencesStayDistinct(t *testing.T) {
	// Disjoint occurrences keep their own markings (the pre-existing
	// multiple-occurrence behavior).
	a := MustNew()
	q := "SELECT * FROM t WHERE a='x' OR b='x'"
	res := a.Analyze(q, nil, inputs("v", "x"))
	if len(res.Markings) != 2 {
		t.Errorf("markings = %d, want 2", len(res.Markings))
	}
}

func TestExactRegionCap(t *testing.T) {
	// Scattered (non-adjacent) occurrences cannot coalesce; the region
	// cap bounds the marking count regardless.
	a := MustNew()
	q := "SELECT '" + strings.Repeat("x,", 2*maxExactRegions) + "'"
	res := a.Analyze(q, nil, inputs("v", "x"))
	if len(res.Markings) != maxExactRegions {
		t.Errorf("markings = %d, want cap %d", len(res.Markings), maxExactRegions)
	}
}

func TestExactScanChargesBudget(t *testing.T) {
	// The occurrence scan itself must be charged against the DP cell
	// budget: a repetitive query cannot buy unbounded probe work.
	a := MustNew(WithDPCellBudget(1000))
	q := "SELECT '" + strings.Repeat("x", 5000) + "'"
	_, err := a.AnalyzeCtx(context.Background(), q, nil,
		[]Input{{Source: "get", Name: "v", Value: "x"}}, nil)
	if !errors.Is(err, core.ErrOverBudget) {
		t.Fatalf("err = %v, want core.ErrOverBudget", err)
	}
}

// TestEnginesAgreeOnPayloads drives both built-in engines (and the
// prefilter on/off variants) over representative payload shapes and
// requires identical results — markings, reasons and verdicts.
func TestEnginesAgreeOnPayloads(t *testing.T) {
	payloads := []struct{ value, query string }{
		{"-1 OR 1=1", "SELECT * FROM data WHERE ID=-1 OR 1=1"},
		{"-1 OR 1=1 ", "SELECT * FROM t WHERE id=-1 OR 1=1"},
		{"-1 UNION SELECT username, password FROM users", "SELECT * FROM posts WHERE id=-1 UNION SELECT username, password FROM users"},
		{"admin' OR '1'='1", `SELECT * FROM users WHERE name='admin\' OR \'1\'=\'1'`},
		{"benign search terms", "SELECT * FROM posts WHERE title LIKE '%benign search terms%'"},
		{"zzzz-unrelated-zzzz", "SELECT * FROM posts WHERE id=42"},
		{strings.Repeat("A", 120) + " OR 1=1", "SELECT * FROM t WHERE a='" + strings.Repeat("A", 119) + " OR 1=1'"},
	}
	variants := []struct {
		name string
		mk   func() *Analyzer
	}{
		{"bitparallel+prefilter", func() *Analyzer { return MustNew() }},
		{"bitparallel", func() *Analyzer { return MustNew(WithoutPrefilter()) }},
		{"sellers+prefilter", func() *Analyzer { return MustNew(WithSellersMatcher()) }},
		{"sellers", func() *Analyzer { return MustNew(WithSellersMatcher(), WithoutPrefilter()) }},
	}
	for _, p := range payloads {
		var base core.Result
		for vi, v := range variants {
			res := v.mk().Analyze(p.query, nil, inputs("id", p.value))
			if vi == 0 {
				base = res
				continue
			}
			if res.Attack != base.Attack || len(res.Markings) != len(base.Markings) || len(res.Reasons) != len(base.Reasons) {
				t.Fatalf("%s diverged on %q: %+v vs %+v", v.name, p.value, res, base)
			}
			for i := range res.Markings {
				if res.Markings[i] != base.Markings[i] {
					t.Fatalf("%s marking %d on %q: %+v vs %+v", v.name, i, p.value, res.Markings[i], base.Markings[i])
				}
			}
		}
	}
}
