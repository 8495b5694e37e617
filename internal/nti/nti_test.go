package nti

import (
	"strings"
	"testing"

	"joza/internal/strdist"
)

func inputs(kv ...string) []Input {
	var out []Input
	for i := 0; i+1 < len(kv); i += 2 {
		out = append(out, Input{Source: "get", Name: kv[i], Value: kv[i+1]})
	}
	return out
}

func TestBenignInputNotFlagged(t *testing.T) {
	// Figure 2A: benign numeric input.
	a := MustNew()
	q := "SELECT * FROM data WHERE ID=1"
	res := a.Analyze(q, nil, inputs("id", "1"))
	if res.Attack {
		t.Errorf("benign query flagged: %+v", res.Reasons)
	}
	// The input is marked (it matches) but covers no critical token.
	if len(res.Markings) == 0 {
		t.Error("expected a marking for the matching input")
	}
}

func TestTautologyDetected(t *testing.T) {
	// Figure 2B: -1 OR 1 = 1 appears verbatim; OR and = are critical.
	a := MustNew()
	payload := "-1 OR 1=1"
	q := "SELECT * FROM data WHERE ID=" + payload
	res := a.Analyze(q, nil, inputs("id", payload))
	if !res.Attack {
		t.Fatal("tautology not detected")
	}
	var texts []string
	for _, r := range res.Reasons {
		texts = append(texts, r.Token.Text)
	}
	joined := strings.Join(texts, " ")
	if !strings.Contains(joined, "OR") || !strings.Contains(joined, "=") {
		t.Errorf("reasons = %v", texts)
	}
}

func TestUnionAttackDetected(t *testing.T) {
	a := MustNew()
	payload := "-1 UNION SELECT username, password FROM users"
	q := "SELECT * FROM posts WHERE id=" + payload
	res := a.Analyze(q, nil, inputs("id", payload))
	if !res.Attack {
		t.Fatal("union attack not detected")
	}
}

func TestMagicQuotesEvasion(t *testing.T) {
	// Figure 2C: the application escapes quotes (magic quotes) inside a
	// comment block the attacker stuffed with quotes, driving the edit
	// distance above threshold. NTI must NOT match (that is the evasion).
	a := MustNew()
	payload := `-1 OR 1=1 /*'''''*/`
	// After addslashes, each ' becomes \'.
	transformed := strings.ReplaceAll(payload, `'`, `\'`)
	q := "SELECT * FROM data WHERE ID=" + transformed
	res := a.Analyze(q, nil, inputs("id", payload))
	if res.Attack {
		t.Error("NTI detected the magic-quotes evasion; the paper shows it must miss")
	}
}

func TestSmallTransformationStillMatches(t *testing.T) {
	// The application trims a single trailing space (a small
	// transformation); the ratio stays under 20% and NTI still flags OR.
	a := MustNew()
	payload := "-1 OR 1=1 "
	q := "SELECT * FROM t WHERE id=" + strings.TrimSpace(payload)
	res := a.Analyze(q, nil, inputs("id", payload))
	if !res.Attack {
		t.Error("small transformation should still match and flag OR")
	}
}

func TestShortInputNoFalsePositive(t *testing.T) {
	// Single-letter inputs like "O" and "R" must not combine into OR, and
	// a short input matching inside a token must not flag.
	a := MustNew()
	q := "SELECT * FROM data WHERE category='OR'"
	res := a.Analyze(q, nil, inputs("q1", "O", "q2", "R"))
	if res.Attack {
		t.Errorf("short inputs flagged: %+v", res.Reasons)
	}
}

func TestWholeTokenRule(t *testing.T) {
	// Input "ELEC" matches inside SELECT but covers no whole token.
	a := MustNew()
	q := "SELECT * FROM t"
	res := a.Analyze(q, nil, inputs("x", "ELEC"))
	if res.Attack {
		t.Error("partial-token match must not flag")
	}
}

func TestBase64EvasionMisses(t *testing.T) {
	// The AdRotate case: input is base64; the query contains the decoded
	// payload, so no correspondence exists and NTI misses the attack.
	a := MustNew()
	encoded := "LTEgT1IgMT0x" // base64("-1 OR 1=1")
	q := "SELECT * FROM ads WHERE id=-1 OR 1=1"
	res := a.Analyze(q, nil, inputs("track", encoded))
	if res.Attack {
		t.Error("NTI should miss base64-encoded input (paper Table II: 49/50)")
	}
}

func TestPayloadConstructionEvasion(t *testing.T) {
	// Section III-A: payload split across inputs; no single input matches
	// a whole critical token region under threshold.
	a := MustNew()
	q := "SELECT * FROM data WHERE ID=1 OR TRUE"
	res := a.Analyze(q, nil, inputs("q1", "1 OR 1=1", "q2", "R TR", "q3", "UE"))
	// "1 OR 1=1" doesn't appear (app concatenated differently)...
	// Actually "q1" has distance: best match of "1 OR 1=1" in query is
	// "1 OR TRUE" (distance 3, ratio 1/3): above threshold. q2/q3 are short
	// fragments matching inside tokens only.
	if res.Attack {
		t.Errorf("payload-construction evasion should bypass NTI: %+v", res.Reasons)
	}
}

func TestMultipleExactOccurrencesAllMarked(t *testing.T) {
	a := MustNew()
	q := "SELECT * FROM t WHERE a='x' OR b='x'"
	res := a.Analyze(q, nil, inputs("v", "x"))
	if len(res.Markings) != 2 {
		t.Errorf("markings = %d, want 2", len(res.Markings))
	}
}

func TestEmptyInputIgnored(t *testing.T) {
	a := MustNew()
	res := a.Analyze("SELECT 1", nil, inputs("empty", ""))
	if len(res.Markings) != 0 || res.Attack {
		t.Errorf("empty input produced %+v", res)
	}
}

func TestThresholdOption(t *testing.T) {
	payload := `-1 OR 1=1 /*''*/`
	transformed := strings.ReplaceAll(payload, `'`, `\'`)
	q := "SELECT * FROM data WHERE ID=" + transformed
	// Distance 2 over ~18 bytes ≈ 11%: default threshold catches it...
	strict := MustNew(WithThreshold(0.05))
	if res := strict.Analyze(q, nil, inputs("id", payload)); res.Attack {
		t.Error("strict threshold should miss")
	}
	loose := MustNew(WithThreshold(0.5))
	if res := loose.Analyze(q, nil, inputs("id", payload)); !res.Attack {
		t.Error("loose threshold should catch")
	}
	if loose.Threshold() != 0.5 {
		t.Error("Threshold() getter")
	}
}

func TestPruningLongInputVsShortQuery(t *testing.T) {
	a := MustNew()
	res := a.Analyze("SELECT 1", nil, inputs("big", strings.Repeat("a", 500)))
	if res.Attack || len(res.Markings) != 0 {
		t.Errorf("long input vs short query should be pruned: %+v", res)
	}
}

func TestWithMatcherNaive(t *testing.T) {
	a := MustNew(WithMatcher(strdist.NaiveSubstringMatch))
	payload := "-1 OR 1=2"
	q := "SELECT * FROM t WHERE id=-1 OR 1=1" // one char differs
	res := a.Analyze(q, nil, inputs("id", payload))
	if !res.Attack {
		t.Error("naive matcher should behave identically")
	}
}

func TestInputKey(t *testing.T) {
	in := Input{Source: "cookie", Name: "session", Value: "v"}
	if in.Key() != "cookie:session" {
		t.Errorf("Key = %q", in.Key())
	}
}

func TestSecondOrderMiss(t *testing.T) {
	// Second-order attack: the payload was stored earlier and replayed
	// from the database; the current request's inputs bear no relation.
	a := MustNew()
	q := "SELECT * FROM t WHERE name='x' OR 1=1 -- '"
	res := a.Analyze(q, nil, inputs("page", "about-us"))
	if res.Attack {
		t.Error("NTI must miss second-order attacks (inputs unrelated)")
	}
}
