package nti

import (
	"context"
	"testing"

	"joza/internal/trace"
)

// tracedSpan returns a live span from a sample-everything tracer.
func tracedSpan(t *testing.T, tr *trace.Tracer, query string) *trace.Span {
	t.Helper()
	s := tr.Start(query)
	if s == nil {
		t.Fatal("sample-everything tracer returned nil span")
	}
	return s
}

func TestAnalyzeTracedRecordsInputEvidence(t *testing.T) {
	a := MustNew()
	tr := trace.New(trace.Config{SampleEvery: 1})
	query := "SELECT * FROM records WHERE ID=-1 OR 1=1 LIMIT 5"
	inputs := []Input{
		{Source: "get", Name: "id", Value: "-1 OR 1=1"},
		{Source: "get", Name: "page", Value: "zzzzzz-no-match-zzzzzz"},
		// Its trigrams are all in the query, but no window of the query
		// holds enough of its bytes: the window pass rejects it.
		{Source: "get", Name: "s", Value: "LIMIT 5 SELECT * FROM"},
	}
	span := tracedSpan(t, tr, query)
	res, _ := a.AnalyzeCtx(context.Background(), query, nil, inputs, span)
	if !res.Attack {
		t.Fatal("tautology must be an attack")
	}
	if len(span.Inputs) != 3 {
		t.Fatalf("span recorded %d inputs, want 3", len(span.Inputs))
	}
	hit := span.Inputs[0]
	if !hit.Matched || hit.Source != "get:id" {
		t.Fatalf("first input evidence = %+v", hit)
	}
	if hit.End <= hit.Start {
		t.Fatalf("matched offsets %d..%d", hit.Start, hit.End)
	}
	if query[hit.Start:hit.End] != "-1 OR 1=1" {
		t.Fatalf("tainted span %q", query[hit.Start:hit.End])
	}
	if span.Inputs[1].Matched {
		t.Fatal("non-matching input marked as matched")
	}
	if !span.Inputs[1].PrefilterRejected {
		t.Fatal("hopeless input should carry prefilter-reject evidence")
	}
	if in := span.Inputs[2]; in.Matched || !in.PrefilterRejected {
		t.Fatalf("window-rejected input evidence = %+v", in)
	}
	if st := a.Stats(); st.PrefilterChecks != 2 || st.PrefilterRejects != 2 {
		t.Fatalf("prefilter checks/rejects = %d/%d, want 2/2", st.PrefilterChecks, st.PrefilterRejects)
	}
	if span.NTIPrefilterNs <= 0 {
		t.Fatal("prefilter duration not accumulated")
	}
	// The lazy lex ran under tracing, so lex time must be attributed.
	if span.LexNs <= 0 {
		t.Fatal("lazy lex duration not recorded")
	}
	if span.NTIMatchNs <= 0 {
		t.Fatal("match durations not accumulated")
	}
}

func TestAnalyzeTracedNilSpanMatchesAnalyze(t *testing.T) {
	a := MustNew()
	query := "SELECT * FROM records WHERE ID=-1 UNION SELECT 1"
	inputs := []Input{{Source: "get", Name: "id", Value: "-1 UNION SELECT 1"}}
	plain := a.Analyze(query, nil, inputs)
	traced, err := a.AnalyzeCtx(context.Background(), query, nil, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Attack != traced.Attack || len(plain.Reasons) != len(traced.Reasons) {
		t.Fatalf("nil-span AnalyzeCtx diverged: %+v vs %+v", plain, traced)
	}
}
