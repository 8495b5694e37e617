package nti

import (
	"slices"
	"strings"
	"testing"

	"joza/internal/strdist"
)

func TestDedupMirroredInputsSingleMarking(t *testing.T) {
	// The same payload arrives under GET and a cookie: one marking, one
	// set of reasons, both sources attributed.
	a := MustNew()
	payload := "-1 OR 1=1"
	q := "SELECT * FROM data WHERE ID=" + payload
	res := a.Analyze(q, nil, []Input{
		{Source: "get", Name: "id", Value: payload},
		{Source: "cookie", Name: "id", Value: payload},
	})
	if !res.Attack {
		t.Fatal("attack not detected")
	}
	if len(res.Markings) != 1 {
		t.Fatalf("markings = %d, want 1 (deduped): %+v", len(res.Markings), res.Markings)
	}
	src := res.Markings[0].Label()
	if !strings.Contains(src, "get:id") || !strings.Contains(src, "cookie:id") {
		t.Errorf("marking source %q must attribute both keys", src)
	}
	// Reasons must not be duplicated: OR and = flagged once each.
	seen := map[string]int{}
	for _, r := range res.Reasons {
		seen[r.Token.Text]++
	}
	for text, n := range seen {
		if n > 1 {
			t.Errorf("reason for %q duplicated %d times", text, n)
		}
	}
}

func TestDedupIdenticalInputRepeated(t *testing.T) {
	// The exact same (key, value) pair twice: the key appears once in the
	// attribution.
	a := MustNew()
	res := a.Analyze("SELECT * FROM t WHERE a='x'", nil, []Input{
		{Source: "get", Name: "v", Value: "x"},
		{Source: "get", Name: "v", Value: "x"},
	})
	if len(res.Markings) != 1 {
		t.Fatalf("markings = %d, want 1", len(res.Markings))
	}
	if got := res.Markings[0].Label(); got != "get:v" {
		t.Errorf("source = %q, want %q", got, "get:v")
	}
}

func TestDedupDistinctValuesKeptSeparate(t *testing.T) {
	a := MustNew()
	q := "SELECT * FROM t WHERE a='x' AND b='y'"
	res := a.Analyze(q, nil, []Input{
		{Source: "get", Name: "a", Value: "x"},
		{Source: "get", Name: "b", Value: "y"},
	})
	if len(res.Markings) != 2 {
		t.Fatalf("markings = %d, want 2: %+v", len(res.Markings), res.Markings)
	}
	if res.Markings[0].Label() == res.Markings[1].Label() {
		t.Error("distinct values must keep their own attribution")
	}
}

func TestDedupMatcherRunsOncePerValue(t *testing.T) {
	// A non-verbatim payload (so the approximate matcher actually runs)
	// mirrored under three keys must cost one matcher invocation.
	a := MustNew()
	payload := "-1 OR 1=2"
	q := "SELECT * FROM t WHERE id=-1 OR 1=1"
	res := a.Analyze(q, nil, []Input{
		{Source: "get", Name: "id", Value: payload},
		{Source: "post", Name: "id", Value: payload},
		{Source: "cookie", Name: "sid", Value: payload},
	})
	if !res.Attack {
		t.Fatal("attack not detected")
	}
	if st := a.Stats(); st.MatcherCalls != 1 {
		t.Errorf("MatcherCalls = %d, want 1", st.MatcherCalls)
	}
}

func TestStatsCountsPrefilterRejects(t *testing.T) {
	for _, tc := range []struct {
		name, query, value string
		// partitioned says the partition filter rejects the pair, and
		// screened that the trigram screen does; when neither does, the
		// window pass rejects it.
		partitioned, screened bool
	}{
		// A two-word search against the options query of its request: the
		// trigram screen would let it through, but none of its k+1 = 4
		// pieces occurs in the query, so the check never builds the screen.
		{"partition filter", "SELECT name, value FROM options WHERE name='siteurl'", "lorem travel", true, false},
		// Long junk input against a shorter query passes the cheap
		// pre-prune (value ≤ query) but is hopeless. Its k+1 = 11 pieces
		// are past maxPieces, so the partition filter does not run.
		{"trigram screen", "SELECT id, title, body FROM posts WHERE id=42 ORDER BY id DESC", strings.Repeat("x", 40), false, true},
		// A multi-term search shares its words' trigrams with its LIKE
		// query, and its piece "sec" occurs there verbatim, but no n-byte
		// window holds n−k of its bytes.
		{"window pass", windowSearchQuery, windowSearchValue, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := MustNew()
			var st checkState
			k := strdist.MaxQualifyingDistance(len(tc.value), a.threshold, len(tc.query))
			if partitioned := k+1 <= maxPieces && !pieceOccurs(tc.value, tc.query, k+1); partitioned != tc.partitioned {
				t.Fatalf("partition filter rejects: %v, want %v", partitioned, tc.partitioned)
			}
			if _, _, ok := a.candidateRange(tc.value, tc.query, &st); ok {
				t.Fatal("prefilter passed the pair")
			}
			if built := st.grams != nil; built == tc.partitioned {
				t.Fatalf("trigram screen built: %v, want %v", built, !tc.partitioned)
			}
			st.release()
			need := (len(tc.value) - gramQ + 1) - gramQ*k
			if screened := !st.ensureGrams(tc.query).hasAtLeast(tc.value, need); screened != tc.screened {
				t.Fatalf("trigram screen rejects: %v, want %v", screened, tc.screened)
			}
			st.release()
			res := a.Analyze(tc.query, nil, []Input{{Source: "get", Name: "x", Value: tc.value}})
			if res.Attack || len(res.Markings) != 0 {
				t.Fatalf("input matched: %+v", res)
			}
			s := a.Stats()
			if s.PrefilterChecks != 1 || s.PrefilterRejects != 1 {
				t.Errorf("prefilter checks/rejects = %d/%d, want 1/1", s.PrefilterChecks, s.PrefilterRejects)
			}
			if s.MatcherCalls != 0 {
				t.Errorf("MatcherCalls = %d, want 0 (prefilter rejected)", s.MatcherCalls)
			}
		})
	}
}

// windowSearchQuery and windowSearchValue are a wp-write search the
// trigram screen lets through and the window pass rejects.
const (
	windowSearchQuery = "SELECT id, title FROM posts WHERE title LIKE '%security%' OR title LIKE '%coffee%' OR title LIKE '%notes%' LIMIT 10"
	windowSearchValue = "security coffee notes"
)

func TestStatsCountsEarlyExits(t *testing.T) {
	// Same hopeless pair with the prefilter off: the matcher runs once
	// and its scan abandons the comparison early.
	a := MustNew(WithoutPrefilter())
	junk := strings.Repeat("x", 40)
	q := "SELECT id, title, body FROM posts WHERE id=42 ORDER BY id DESC"
	res := a.Analyze(q, nil, []Input{{Source: "get", Name: "x", Value: junk}})
	if res.Attack || len(res.Markings) != 0 {
		t.Fatalf("junk input matched: %+v", res)
	}
	st := a.Stats()
	if st.MatcherCalls != 1 {
		t.Errorf("MatcherCalls = %d, want 1", st.MatcherCalls)
	}
	if st.EarlyExits != 1 {
		t.Errorf("EarlyExits = %d, want 1", st.EarlyExits)
	}
	if st.PrefilterChecks != 0 {
		t.Errorf("PrefilterChecks = %d, want 0 (prefilter disabled)", st.PrefilterChecks)
	}
}

func TestAnalyzeLexesLazily(t *testing.T) {
	// No inputs: Analyze must not need tokens at all (nil toks stays nil
	// internally; result is empty and safe).
	a := MustNew()
	res := a.Analyze("SELECT * FROM t", nil, nil)
	if res.Attack || len(res.Markings) != 0 {
		t.Errorf("no-input analyze = %+v", res)
	}
}

func TestDedupCommaBearingName(t *testing.T) {
	// Regression: a parameter name containing a comma (legal in header and
	// cookie names) used to split into bogus keys when attribution was a
	// comma-joined string, so "header:a,b" looked like it already
	// contained "header:a" and dedup dropped the real key.
	inputs := []Input{
		{Source: "header", Name: "a,b", Value: "v1"},
		{Source: "header", Name: "a", Value: "v1"},
		{Source: "header", Name: "a,b", Value: "v1"}, // repeat: must not duplicate
	}
	groups, next := dedupInputs(nil, nil, inputs)
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	want := []string{"header:a,b", "header:a"}
	if got := groupKeys(&groups[0], inputs, next); !slices.Equal(got, want) {
		t.Fatalf("keys = %q, want %q", got, want)
	}
	if got := groups[0].sourceLabel(inputs, next); got != "header:a,b,header:a" {
		t.Errorf("sourceLabel = %q", got)
	}
}

// groupKeys renders the key of every input in g, in attribution order.
func groupKeys(g *inputGroup, inputs []Input, next []int) []string {
	var keys []string
	for i := g.first; ; i = next[i] {
		keys = append(keys, inputs[i].Key())
		if i == g.last {
			return keys
		}
	}
}

func TestDedupKeysCompareRendered(t *testing.T) {
	// Keys compare as rendered "source:name" strings: ("a:b", "c") and
	// ("a", "b:c") are one key, ("a", "bc") and ("ab", "c") are not.
	inputs := []Input{
		{Source: "a:b", Name: "c", Value: "v"},
		{Source: "a", Name: "b:c", Value: "v"},
		{Source: "a", Name: "bc", Value: "v"},
		{Source: "ab", Name: "c", Value: "v"},
		{Source: "a", Name: "bc", Value: "v"},
	}
	groups, next := dedupInputs(nil, nil, inputs)
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	want := []string{"a:b:c", "a:bc", "ab:c"}
	if got := groupKeys(&groups[0], inputs, next); !slices.Equal(got, want) {
		t.Fatalf("keys = %q, want %q", got, want)
	}
	for _, a := range inputs {
		for _, b := range inputs {
			if got, want := sameKey(a, b), a.Key() == b.Key(); got != want {
				t.Errorf("sameKey(%q, %q) = %v, want %v", a.Key(), b.Key(), got, want)
			}
		}
	}
}

func TestDedupManyInputsUseTheIndex(t *testing.T) {
	// More inputs than the stack buffers hold: grouping by the value
	// index must agree with the scan.
	var inputs []Input
	for i := 0; i < 20; i++ {
		inputs = append(inputs, Input{Source: "get", Name: strings.Repeat("n", i+1), Value: []string{"x", "y", "", "z"}[i%4]})
	}
	groups, next := dedupInputs(nil, nil, inputs)
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	for gi, g := range groups {
		keys := groupKeys(&g, inputs, next)
		if len(keys) != 5 {
			t.Errorf("group %d (%q) has keys %q, want 5", gi, g.value, keys)
		}
		for i := g.first; ; i = next[i] {
			if inputs[i].Value != g.value {
				t.Errorf("group %q holds input %d with value %q", g.value, i, inputs[i].Value)
			}
			if i == g.last {
				break
			}
		}
	}
}

func TestDedupCommaBearingNameEndToEnd(t *testing.T) {
	// The rendered marking must attribute both channels even when one
	// name carries a comma.
	a := MustNew()
	payload := "-1 OR 1=1"
	q := "SELECT * FROM data WHERE ID=" + payload
	res := a.Analyze(q, nil, []Input{
		{Source: "header", Name: "x,y", Value: payload},
		{Source: "get", Name: "x", Value: payload},
	})
	if !res.Attack || len(res.Markings) != 1 {
		t.Fatalf("result = %+v", res)
	}
	if got := res.Markings[0].Label(); got != "header:x,y,get:x" {
		t.Errorf("marking source = %q", got)
	}
}
