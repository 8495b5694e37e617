package joza_test

import (
	"context"
	"testing"

	"joza"
)

// TestWarmSitedCheckLexesNothing pins the warm sited check's lex count,
// read from each check's sampled trace span (its lex time is zero exactly
// when no stage lexed). The Guard has a trained profile, the request a
// call site and a numeric input that occurs in the query. The first check
// misses the PTI query cache and lexes there; the first hit finds the
// entry's skeleton memo empty, so the profile stage lexes and fills it.
// From then on PTI answers from the cache, the profile stage from the
// memo, and NTI marks the all-digit match without tokens: no lex at all.
// A matched input holding other bytes still lexes and still flags, and a
// learning guard never reads the memo, so it lexes on every hit.
func TestWarmSitedCheckLexesNothing(t *testing.T) {
	const site = "plugin:records"
	const query = "SELECT * FROM records WHERE ID=5 LIMIT 5"
	numeric := []joza.Input{{Source: "get", Name: "id", Value: "5"}}
	tracing := joza.WithObservability(joza.ObservabilityConfig{TraceSampleEvery: 1})
	ctx := context.Background()
	run := func(g *joza.Guard, query string, inputs []joza.Input) joza.Verdict {
		t.Helper()
		v, err := g.Check(ctx, joza.Request{Site: site, Query: query, Inputs: inputs})
		if err != nil {
			t.Fatal(err)
		}
		if v.Trace == nil {
			t.Fatal("check was not sampled")
		}
		return v
	}

	rec := joza.NewProfileRecorder()
	rec.Record(site, query)
	g := newGuard(t, joza.WithProfileStore(rec.Store()), tracing)
	for i, step := range []string{"miss", "first hit, memo filled", "warm", "warm again"} {
		v := run(g, query, numeric)
		if v.Attack || v.ProfileOutcome != "seen" || len(v.NTI.Markings) == 0 {
			t.Fatalf("%s: verdict %+v", step, v)
		}
		if lexed, want := v.Trace.LexNs > 0, i < 2; lexed != want {
			t.Fatalf("%s: lexed %v (%d ns), want %v", step, lexed, v.Trace.LexNs, want)
		}
	}

	// The same warm query with an input matching past the digits: NTI
	// lexes to find the LIMIT keyword it covers.
	v := run(g, query, []joza.Input{{Source: "get", Name: "id", Value: "5 LIMIT 5"}})
	if !v.NTI.Attack || v.Trace.LexNs == 0 {
		t.Fatalf("warm query, keyword-covering input: NTI attack %v, lex %d ns", v.NTI.Attack, v.Trace.LexNs)
	}
	// A tautology is never cached, so PTI lexes it, and both analyzers flag.
	v = run(g, "SELECT * FROM records WHERE ID=1 OR 1=1 LIMIT 5", []joza.Input{{Source: "get", Name: "id", Value: "1 OR 1=1"}})
	if !v.NTI.Attack || !v.PTI.Attack || v.Trace.LexNs == 0 {
		t.Fatalf("injected input: NTI attack %v, PTI attack %v, lex %d ns", v.NTI.Attack, v.PTI.Attack, v.Trace.LexNs)
	}

	learner := newGuard(t, joza.WithProfileLearning(joza.NewProfileRecorder()), tracing)
	for i := 0; i < 4; i++ {
		if v := run(learner, query, numeric); v.ProfileOutcome != "learned" || v.Trace.LexNs == 0 {
			t.Fatalf("learning check %d: outcome %q, lex %d ns", i, v.ProfileOutcome, v.Trace.LexNs)
		}
	}
}
