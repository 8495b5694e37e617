package joza_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"joza"
)

const demoSource = `<?php
$postid = $_GET['id'];
$query = "SELECT * FROM records WHERE ID=$postid LIMIT 5";
$result = mysql_query($query);
`

func newGuard(t *testing.T, opts ...joza.Option) *joza.Guard {
	t.Helper()
	base := []joza.Option{joza.WithFragments(joza.FragmentsFromSource(demoSource))}
	g, err := joza.New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// check runs g.Check under context.Background(), on which an in-process
// Guard's pipeline cannot fail.
func check(g *joza.Guard, query string, inputs []joza.Input) joza.Verdict {
	v, _ := g.Check(context.Background(), joza.Request{Query: query, Inputs: inputs})
	return v
}

func TestBenignQuerySafe(t *testing.T) {
	g := newGuard(t)
	v := check(g, "SELECT * FROM records WHERE ID=5 LIMIT 5", []joza.Input{{Source: "get", Name: "id", Value: "5"}})
	if v.Attack {
		t.Errorf("benign query flagged: NTI=%v PTI=%v", v.NTI.Reasons, v.PTI.Reasons)
	}
	if err := g.Authorize(context.Background(), joza.Request{Query: "SELECT * FROM records WHERE ID=5 LIMIT 5"}); err != nil {
		t.Errorf("Authorize: %v", err)
	}
}

func TestAttackDetectedByBoth(t *testing.T) {
	g := newGuard(t)
	payload := "-1 UNION SELECT username, password FROM users"
	q := "SELECT * FROM records WHERE ID=" + payload + " LIMIT 5"
	v := check(g, q, []joza.Input{{Source: "get", Name: "id", Value: payload}})
	if !v.Attack {
		t.Fatal("attack missed")
	}
	by := v.DetectedBy()
	if len(by) != 2 {
		t.Errorf("DetectedBy = %v, want both analyzers", by)
	}
}

func TestNTIEvasionCaughtByPTI(t *testing.T) {
	// Payload inflated by magic quotes beyond the NTI threshold; the
	// comment block is not a program fragment so PTI flags it.
	g := newGuard(t)
	rawPayload := `-1 OR 1=1 /*''''''''*/`
	transformed := strings.ReplaceAll(rawPayload, `'`, `\'`)
	q := "SELECT * FROM records WHERE ID=" + transformed + " LIMIT 5"
	v := check(g, q, []joza.Input{{Source: "get", Name: "id", Value: rawPayload}})
	if v.NTI.Attack {
		t.Error("NTI unexpectedly caught the evasion (threshold must be exceeded)")
	}
	if !v.PTI.Attack {
		t.Error("PTI must catch the NTI evasion")
	}
	if !v.Attack {
		t.Error("hybrid verdict must be attack")
	}
}

func TestPTIEvasionCaughtByNTI(t *testing.T) {
	// The application's own vocabulary contains OR and =, so a tautology
	// rebuilt from fragments evades PTI — but it appears verbatim in the
	// query, so NTI flags it.
	src := demoSource + `
$cond = " OR ";
$eq = "=";
$one = "1";
`
	g, err := joza.New(joza.WithFragments(joza.FragmentsFromSource(src)))
	if err != nil {
		t.Fatal(err)
	}
	payload := "1 OR 1=1"
	q := "SELECT * FROM records WHERE ID=" + payload + " LIMIT 5"
	v := check(g, q, []joza.Input{{Source: "get", Name: "id", Value: payload}})
	if v.PTI.Attack {
		t.Errorf("PTI unexpectedly caught vocabulary attack: %v", v.PTI.Reasons)
	}
	if !v.NTI.Attack {
		t.Error("NTI must catch the PTI evasion")
	}
	if !v.Attack {
		t.Error("hybrid verdict must be attack")
	}
}

func TestAuthorizePolicies(t *testing.T) {
	g := newGuard(t, joza.WithPolicy(joza.PolicyErrorVirtualize))
	payload := "-1 OR 1=1"
	q := "SELECT * FROM records WHERE ID=" + payload
	err := g.Authorize(context.Background(), joza.Request{
		Query:  q,
		Inputs: []joza.Input{{Source: "get", Name: "id", Value: payload}},
	})
	if err == nil {
		t.Fatal("Authorize allowed an attack")
	}
	var ae *joza.AttackError
	if !errors.As(err, &ae) {
		t.Fatalf("error type %T", err)
	}
	if ae.Policy != joza.PolicyErrorVirtualize {
		t.Errorf("policy = %v", ae.Policy)
	}
	if g.Policy() != joza.PolicyErrorVirtualize {
		t.Error("Policy() accessor")
	}
}

func TestNewRequiresFragments(t *testing.T) {
	if _, err := joza.New(); !errors.Is(err, joza.ErrNoFragments) {
		t.Errorf("err = %v, want ErrNoFragments", err)
	}
	if _, err := joza.New(joza.WithoutPTI(), joza.WithoutNTI()); err == nil {
		t.Error("both analyzers disabled must error")
	}
	if _, err := joza.New(joza.WithoutPTI()); err != nil {
		t.Errorf("NTI-only guard: %v", err)
	}
}

func TestAnalyzerIsolation(t *testing.T) {
	payload := "-1 OR 1=1"
	q := "SELECT * FROM records WHERE ID=" + payload + " LIMIT 5"
	in := []joza.Input{{Source: "get", Name: "id", Value: payload}}

	ntiOnly, err := joza.New(joza.WithoutPTI())
	if err != nil {
		t.Fatal(err)
	}
	v := check(ntiOnly, q, in)
	if !v.NTI.Attack || v.PTI.Attack {
		t.Errorf("NTI-only: %+v", v.DetectedBy())
	}

	ptiOnly := newGuard(t, joza.WithoutNTI())
	v = check(ptiOnly, q, in)
	if !v.PTI.Attack || v.NTI.Attack {
		t.Errorf("PTI-only: %+v", v.DetectedBy())
	}
}

func TestFragmentHelpers(t *testing.T) {
	g := newGuard(t)
	if g.FragmentCount() == 0 {
		t.Error("FragmentCount = 0")
	}
	sample := g.SampleFragments(1)
	if len(sample) != 1 || !strings.Contains(sample[0], "SELECT") {
		t.Errorf("sample = %v", sample)
	}
}

func TestFragmentsFromDirError(t *testing.T) {
	if _, err := joza.FragmentsFromDir("/nonexistent-joza-dir"); err == nil {
		t.Error("want error for missing dir")
	}
}

func TestCacheStats(t *testing.T) {
	g := newGuard(t, joza.WithCacheMode(joza.CacheQuery, 16))
	q := "SELECT * FROM records WHERE ID=5 LIMIT 5"
	check(g, q, nil)
	check(g, q, nil)
	if st := g.PTICacheStats(); st.QueryHits != 1 {
		t.Errorf("stats = %+v", st)
	}
	ntiOnly, _ := joza.New(joza.WithoutPTI())
	if st := ntiOnly.PTICacheStats(); st.QueryHits != 0 || st.Misses != 0 {
		t.Errorf("NTI-only stats = %+v", st)
	}
}

func TestRenderVerdict(t *testing.T) {
	g := newGuard(t)
	payload := "-1 OR 1=1"
	q := "SELECT * FROM records WHERE ID=" + payload + " LIMIT 5"
	v := check(g, q, []joza.Input{{Source: "get", Name: "id", Value: payload}})
	out := joza.RenderVerdict(v)
	lines := strings.Split(out, "\n")
	if len(lines) < 3 || lines[0] != q {
		t.Fatalf("render = %q", out)
	}
	orPos := strings.Index(q, "OR")
	if lines[1][orPos] != '-' {
		t.Errorf("OR not rendered as negatively tainted: %q", lines[1])
	}
	if lines[2][orPos] != 'c' {
		t.Errorf("OR not rendered critical: %q", lines[2])
	}
}

func TestSecondOrderAttack(t *testing.T) {
	// The payload arrives from storage, not from this request's inputs:
	// NTI misses, PTI catches — the hybrid still blocks.
	g := newGuard(t)
	q := "SELECT * FROM records WHERE ID=1 OR 1=1 -- LIMIT 5"
	v := check(g, q, []joza.Input{{Source: "get", Name: "page", Value: "home"}})
	if v.NTI.Attack {
		t.Error("NTI should miss second-order attacks")
	}
	if !v.Attack || !v.PTI.Attack {
		t.Error("PTI must catch the second-order attack")
	}
}

func TestMixedSourcePayloadConstruction(t *testing.T) {
	// Payload assembled from multiple harmless-looking inputs: NTI cannot
	// combine markings; PTI flags the foreign tokens.
	g := newGuard(t)
	q := "SELECT * FROM records WHERE ID=1 OR TRUE LIMIT 5"
	v := check(g, q, []joza.Input{
		{Source: "get", Name: "q1", Value: "1 OR 1=1"},
		{Source: "get", Name: "q2", Value: "R TR"},
		{Source: "get", Name: "q3", Value: "UE"},
	})
	if !v.Attack {
		t.Error("payload-construction attack must be blocked by the hybrid")
	}
	if !v.PTI.Attack {
		t.Error("PTI must flag OR/TRUE as untrusted")
	}
}
