package pti

import (
	"context"
	"testing"

	"joza/internal/fragments"
	"joza/internal/trace"
)

func tracedFragments() *fragments.Set {
	return fragments.NewSet([]string{
		"SELECT * FROM records WHERE ID=",
		" LIMIT 5",
	})
}

func TestAnalyzeTracedRecordsCoverEvidence(t *testing.T) {
	a := New(tracedFragments())
	tr := trace.New(trace.Config{SampleEvery: 1})
	span := tr.Start("q")
	res, _ := a.AnalyzeCtx(context.Background(), "SELECT * FROM records WHERE ID=5 LIMIT 5", nil, span)
	if res.Attack {
		t.Fatal("benign query flagged")
	}
	if len(span.Covers) == 0 {
		t.Fatal("no cover evidence recorded for a safe query")
	}
	for _, c := range span.Covers {
		if c.FragEnd <= c.FragStart || c.TokenEnd <= c.TokenStart {
			t.Fatalf("degenerate cover %+v", c)
		}
		if c.TokenStart < c.FragStart || c.FragEnd < c.TokenEnd {
			t.Fatalf("cover %+v does not contain its token", c)
		}
	}
	if len(span.UncoveredTokens) != 0 {
		t.Fatalf("safe query recorded uncovered tokens: %+v", span.UncoveredTokens)
	}
}

func TestAnalyzeTracedRecordsUncoveredEvidence(t *testing.T) {
	for _, opt := range [][]Option{nil, {WithoutParseFirst()}} {
		a := New(tracedFragments(), opt...)
		tr := trace.New(trace.Config{SampleEvery: 1})
		span := tr.Start("q")
		res, _ := a.AnalyzeCtx(context.Background(), "SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5", nil, span)
		if !res.Attack {
			t.Fatal("injection not flagged")
		}
		if len(span.UncoveredTokens) == 0 {
			t.Fatal("attack verdict recorded no uncovered-token evidence")
		}
		found := false
		for _, u := range span.UncoveredTokens {
			if u.Token == "UNION" {
				found = true
			}
		}
		if !found {
			t.Fatalf("UNION missing from uncovered evidence: %+v", span.UncoveredTokens)
		}
	}
}

func TestCachedTracedRecordsOutcomes(t *testing.T) {
	c := NewCached(New(tracedFragments()), CacheQueryAndStructure, 64)
	tr := trace.New(trace.Config{SampleEvery: 1})
	query := "SELECT * FROM records WHERE ID=7 LIMIT 5"

	miss := tr.Start(query)
	c.AnalyzeLazyCtx(context.Background(), query, nil, miss)
	if miss.CacheOutcome != trace.CacheMiss {
		t.Fatalf("first analysis outcome %q, want miss", miss.CacheOutcome)
	}
	if miss.LexNs <= 0 || miss.PTICoverNs <= 0 {
		t.Fatalf("miss must time lex (%d) and cover (%d)", miss.LexNs, miss.PTICoverNs)
	}

	hit := tr.Start(query)
	c.AnalyzeLazyCtx(context.Background(), query, nil, hit)
	if hit.CacheOutcome != trace.CacheQueryHit {
		t.Fatalf("repeat outcome %q, want query-hit", hit.CacheOutcome)
	}
	if hit.LexNs != 0 || hit.PTICoverNs != 0 {
		t.Fatal("query-cache hit must skip lex and cover")
	}

	// Same structure, different literal: structure-hit.
	variant := "SELECT * FROM records WHERE ID=99 LIMIT 5"
	sh := tr.Start(variant)
	c.AnalyzeLazyCtx(context.Background(), variant, nil, sh)
	if sh.CacheOutcome != trace.CacheStructureHit {
		t.Fatalf("variant outcome %q, want structure-hit", sh.CacheOutcome)
	}
}

func TestCachedTracedNoCacheMode(t *testing.T) {
	c := NewCached(New(tracedFragments()), CacheNone, 1)
	tr := trace.New(trace.Config{SampleEvery: 1})
	span := tr.Start("q")
	c.AnalyzeLazyCtx(context.Background(), "SELECT * FROM records WHERE ID=7 LIMIT 5", nil, span)
	if span.CacheOutcome != "" {
		t.Fatalf("cacheless analyzer recorded outcome %q", span.CacheOutcome)
	}
}
