package pti

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"joza/internal/fragments"
	"joza/internal/sqltoken"
	"joza/internal/trace"
)

// appFragments models the paper's running example: the literal set of the
// vulnerable PHP program in Section III-B.
func appFragments() *fragments.Set {
	return fragments.NewSet([]string{
		"id",
		"SELECT * FROM records WHERE ID=",
		" LIMIT 5",
	})
}

func TestBenignQuerySafe(t *testing.T) {
	// Figure 3A: every critical token comes from a program fragment.
	a := New(appFragments())
	q := "SELECT * FROM records WHERE ID=5 LIMIT 5"
	res := a.Analyze(q, nil)
	if res.Attack {
		t.Errorf("benign query flagged: %v", res.Reasons)
	}
}

func TestUnionAttackDetected(t *testing.T) {
	// Figure 3B: UNION, SELECT and username() are not in any fragment.
	a := New(appFragments())
	q := "SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5"
	res := a.Analyze(q, nil)
	if !res.Attack {
		t.Fatal("union attack not detected")
	}
	var bad []string
	for _, r := range res.Reasons {
		bad = append(bad, r.Token.Text)
	}
	joined := strings.Join(bad, " ")
	for _, want := range []string{"UNION", "SELECT", "username"} {
		if !strings.Contains(joined, want) {
			t.Errorf("uncovered tokens %v missing %q", bad, want)
		}
	}
}

func TestVocabularyAttackMissed(t *testing.T) {
	// Figure 3C / Table III: if the application contains OR and = as
	// fragments, the tautology payload is (wrongly but by design) safe.
	set := fragments.NewSet([]string{
		"SELECT * FROM records WHERE ID=",
		" LIMIT 5",
		"OR",
		"=",
		"1",
	})
	a := New(set)
	q := "SELECT * FROM records WHERE ID=1 OR 1 = 1 LIMIT 5"
	res := a.Analyze(q, nil)
	if res.Attack {
		t.Errorf("application-vocabulary attack should evade PTI: %v", res.Reasons)
	}
}

func TestFragmentCombinationForbidden(t *testing.T) {
	// Fragments "O" and "R" must not combine into the critical token OR.
	set := fragments.NewSetKeepAll([]string{"O", "R", "SELECT * FROM t WHERE a="})
	a := New(set)
	q := "SELECT * FROM t WHERE a=1 OR 1"
	res := a.Analyze(q, nil)
	if !res.Attack {
		t.Error("OR assembled from single-letter fragments must be flagged")
	}
}

func TestCommentIsOneCriticalToken(t *testing.T) {
	// The whole comment must come from one fragment.
	set := fragments.NewSet([]string{"SELECT * FROM t WHERE id=", "/*", "*/"})
	a := New(set)
	q := "SELECT * FROM t WHERE id=1 /* evasion '' block */"
	res := a.Analyze(q, nil)
	if !res.Attack {
		t.Error("comment not covered by a single fragment must be flagged")
	}
	// If the program itself contains the full comment, it is trusted.
	set2 := fragments.NewSet([]string{"SELECT * FROM t WHERE id=", "/* evasion '' block */"})
	a2 := New(set2)
	if res := a2.Analyze(q, nil); res.Attack {
		t.Errorf("program-originated comment flagged: %v", res.Reasons)
	}
}

func TestSecondOrderAttackDetected(t *testing.T) {
	// Input independence: the payload arrived via the database, but PTI
	// still flags it because OR/-- are not program fragments.
	a := New(appFragments())
	q := "SELECT * FROM records WHERE ID=1 OR 1=1 -- "
	res := a.Analyze(q, nil)
	if !res.Attack {
		t.Error("second-order payload must be flagged by PTI")
	}
}

func TestStrategiesAgree(t *testing.T) {
	set := appFragments()
	queries := []string{
		"SELECT * FROM records WHERE ID=5 LIMIT 5",
		"SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5",
		"SELECT * FROM records WHERE ID=1 OR 1=1",
		"DELETE FROM records",
		"",
	}
	variants := []*Analyzer{
		New(set),
		New(set, WithoutParseFirst()),
		New(set, WithNaiveMatcher()),
		New(set, WithNaiveMatcher(), WithoutParseFirst()),
		New(set, WithMRU(2)),
		New(set, WithMRU(64)),
		New(set, WithNaiveMatcher(), WithMRU(2)),
		New(set, WithNaiveMatcher(), WithMRU(64)),
	}
	// Two passes, so the MRU variants also answer from a warm list.
	for pass := 0; pass < 2; pass++ {
		for _, q := range queries {
			want := variants[0].Analyze(q, nil)
			for i, v := range variants[1:] {
				if got := v.Analyze(q, nil); got.Attack != want.Attack || !reflect.DeepEqual(got.Reasons, want.Reasons) {
					t.Errorf("pass %d, query %q: variant %d (%v) = %v %v, baseline = %v %v",
						pass, q, i+1, v, got.Attack, got.Reasons, want.Attack, want.Reasons)
				}
			}
		}
	}
}

func TestMRUWarmPathCovers(t *testing.T) {
	a := New(appFragments(), WithMRU(64))
	q := "SELECT * FROM records WHERE ID=7 LIMIT 5"
	// First analysis populates the MRU; second should use it and still be
	// correct.
	if a.Analyze(q, nil).Attack {
		t.Fatal("cold analysis flagged benign query")
	}
	span := trace.New(trace.Config{SampleEvery: 1}).Start(q)
	if res, _ := a.AnalyzeCtx(context.Background(), q, nil, span); res.Attack {
		t.Fatal("warm analysis flagged benign query")
	}
	if len(span.Covers) == 0 {
		t.Fatal("warm analysis recorded no covers")
	}
	for _, c := range span.Covers {
		if !c.MRU {
			t.Errorf("warm cover %+v did not come from the MRU", c)
		}
	}
	// After warm-up, an attack must still be caught.
	res := a.Analyze("SELECT * FROM records WHERE ID=1 OR 1=1", nil)
	if !res.Attack {
		t.Error("attack missed after MRU warm-up")
	}
}

func TestCoverIsAFunctionOfTheQuery(t *testing.T) {
	a := New(fragments.NewSet([]string{"FROM records WHERE ID=", "FROM records"}))
	q := "FROM records WHERE ID=7"
	first := a.Analyze(q, nil)
	if first.Attack || len(first.Markings) == 0 {
		t.Fatalf("first analysis: attack=%v markings=%+v", first.Attack, first.Markings)
	}
	if second := a.Analyze(q, nil); !reflect.DeepEqual(second.Markings, first.Markings) {
		t.Errorf("markings depend on history:\n  first:  %+v\n  second: %+v", first.Markings, second.Markings)
	}
}

// TestWarmParseFirstAllocatesOnlyResultGrowth: with its scratch pooled, a
// parse-first analysis allocates only its result's evidence, one exact-size
// slice each for markings and reasons when there are any.
func TestWarmParseFirstAllocatesOnlyResultGrowth(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	a := New(appFragments())
	for _, q := range []string{
		"SELECT * FROM records WHERE ID=5 LIMIT 5",
		"SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5",
	} {
		toks := sqltoken.Lex(q)
		res, _ := a.AnalyzeCtx(context.Background(), q, toks, nil)
		want := exactAllocs(len(res.Markings)) + exactAllocs(len(res.Reasons))
		got := testing.AllocsPerRun(100, func() { a.AnalyzeCtx(context.Background(), q, toks, nil) })
		if got != want {
			t.Errorf("query %q: %v allocations per analysis, want %v (%d markings and %d reasons)",
				q, got, want, len(res.Markings), len(res.Reasons))
		}
	}
}

// exactAllocs counts the allocations of an exact-size slice of n values.
func exactAllocs(n int) float64 {
	if n == 0 {
		return 0
	}
	return 1
}

// TestEvidenceSlicesExactSize: parse-first's markings and reasons are nil
// when there are none and have capacity equal to length otherwise, in
// each cover mode, for benign and attack queries.
func TestEvidenceSlicesExactSize(t *testing.T) {
	for _, a := range []*Analyzer{New(appFragments()), New(appFragments(), WithMRU(2))} {
		for _, q := range []string{
			"",
			"records",
			"SELECT * FROM records WHERE ID=5 LIMIT 5",
			"SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5",
			"UNION SELECT",
		} {
			res := a.Analyze(q, nil)
			for _, c := range []struct {
				name     string
				len, cap int
				isNil    bool
			}{
				{"markings", len(res.Markings), cap(res.Markings), res.Markings == nil},
				{"reasons", len(res.Reasons), cap(res.Reasons), res.Reasons == nil},
			} {
				if c.len == 0 && !c.isNil {
					t.Errorf("%v %q: empty %s are not nil", a, q, c.name)
				}
				if c.len != c.cap {
					t.Errorf("%v %q: %s len %d cap %d", a, q, c.name, c.len, c.cap)
				}
			}
			if q == "UNION SELECT" && (res.Reasons == nil || res.Markings != nil) {
				t.Errorf("%q: want reasons and no markings, got %+v", q, res)
			}
		}
	}
}

func TestPositiveMarkingsReported(t *testing.T) {
	a := New(appFragments(), WithoutParseFirst())
	q := "SELECT * FROM records WHERE ID=5 LIMIT 5"
	res := a.Analyze(q, nil)
	if len(res.Markings) == 0 {
		t.Fatal("full-marking mode must report positive markings")
	}
	found := false
	for _, m := range res.Markings {
		if m.Source == "SELECT * FROM records WHERE ID=" && m.Span.Start == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("markings = %+v", res.Markings)
	}
}

func TestAnalyzerString(t *testing.T) {
	s := New(appFragments()).String()
	// "id" is filtered out (no SQL token), leaving two fragments.
	if !strings.Contains(s, "fragments=2") {
		t.Errorf("String = %q", s)
	}
}

func TestEmptyFragmentSetFlagsEverything(t *testing.T) {
	a := New(fragments.NewSet(nil))
	res := a.Analyze("SELECT 1", nil)
	if !res.Attack {
		t.Error("no fragments: every critical token is untrusted")
	}
}

func TestSetAccessor(t *testing.T) {
	set := appFragments()
	if New(set).Set() != set {
		t.Error("Set() accessor")
	}
}
