package strdist

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLevenshteinBasics(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"OR 1=1", "OR 1=1", 0},
		{"a", "b", 1},
		{"ab", "ba", 2},
		{"intention", "execution", 5},
	}
	for _, tt := range tests {
		if got := Levenshtein(tt.a, tt.b); got != tt.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	symmetric := func(a, b string) bool {
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(symmetric, &quick.Config{MaxCount: 500}); err != nil {
		t.Error("symmetry:", err)
	}
	identity := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(identity, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("identity:", err)
	}
	bounded := func(a, b string) bool {
		d := Levenshtein(a, b)
		maxLen := len(a)
		if len(b) > maxLen {
			maxLen = len(b)
		}
		diff := len(a) - len(b)
		if diff < 0 {
			diff = -diff
		}
		return d >= diff && d <= maxLen
	}
	if err := quick.Check(bounded, &quick.Config{MaxCount: 500}); err != nil {
		t.Error("bounds:", err)
	}
	triangle := func(a, b, c string) bool {
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(triangle, cfg); err != nil {
		t.Error("triangle inequality:", err)
	}
}

func TestSubstringMatchExact(t *testing.T) {
	q := "SELECT * FROM data WHERE ID=-1 OR 1=1"
	in := "-1 OR 1=1"
	m := SubstringMatch(in, q)
	if m.Distance != 0 {
		t.Fatalf("distance = %d, want 0 (match %q)", m.Distance, q[m.Start:m.End])
	}
	if q[m.Start:m.End] != in {
		t.Errorf("matched %q, want %q", q[m.Start:m.End], in)
	}
	if m.Ratio() != 0 {
		t.Errorf("ratio = %v, want 0", m.Ratio())
	}
}

func TestSubstringMatchApproximate(t *testing.T) {
	// Input with quotes; the query has them escaped with backslashes
	// (magic quotes), so the distance equals the number of added slashes.
	in := `x' OR '1'='1`
	q := `SELECT * FROM t WHERE name='x\' OR \'1\'=\'1'`
	m := SubstringMatch(in, q)
	if m.Distance != 4 {
		t.Errorf("distance = %d (match %q), want 4", m.Distance, q[m.Start:m.End])
	}
}

func TestSubstringMatchAgreesWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := "abcO R='1"
	randStr := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return sb.String()
	}
	for iter := 0; iter < 200; iter++ {
		in := randStr(1 + rng.Intn(8))
		q := randStr(1 + rng.Intn(20))
		got := SubstringMatch(in, q)
		want := NaiveSubstringMatch(in, q)
		if got != want {
			t.Fatalf("iter %d: SubstringMatch(%q, %q) = %+v, naive = %+v",
				iter, in, q, got, want)
		}
		// Verify the reported span really has the reported distance.
		if d := Levenshtein(in, q[got.Start:got.End]); d != got.Distance {
			t.Fatalf("iter %d: span %q has distance %d, reported %d",
				iter, q[got.Start:got.End], d, got.Distance)
		}
	}
}

// TestNaiveMatchesSellersTieBreak pins pairs where equal-distance spans
// exist and the two matchers historically diverged: the naive matcher
// tie-broke over every (start, end) pair while Sellers propagates one
// diagonal-preferred start per end column. Since the fix the naive matcher
// recovers Sellers' exact start, so all engines are bit-identical oracles
// of each other.
func TestNaiveMatchesSellersTieBreak(t *testing.T) {
	cases := []struct{ input, query string }{
		// Sellers reports (0,2,1): the span "aa" with one substitution,
		// start propagated diagonally. The old naive picked (0,3,1) —
		// same distance, longer span — and the two disagreed.
		{"aa", "aba"},
		{"ab", "ba"},
		{"abc", "acbc"},
		{"aba", "ab"},
		{"OR 1=1", "x OR 11 y"},
	}
	for _, tc := range cases {
		sellers := SubstringMatch(tc.input, tc.query)
		naive := NaiveSubstringMatch(tc.input, tc.query)
		if naive != sellers {
			t.Errorf("(%q, %q): naive = %+v, Sellers = %+v; engines must be bit-identical",
				tc.input, tc.query, naive, sellers)
		}
		if d := Levenshtein(tc.input, tc.query[naive.Start:naive.End]); d != naive.Distance {
			t.Errorf("(%q, %q): reported span %q carries distance %d, reported %d",
				tc.input, tc.query, tc.query[naive.Start:naive.End], d, naive.Distance)
		}
	}
}

// TestNaiveExhaustiveEquivalence sweeps every small binary-alphabet pair,
// where equal-distance ties are densest, and requires bit-identical
// matches from the naive and Sellers engines.
func TestNaiveExhaustiveEquivalence(t *testing.T) {
	strs := func(maxLen int) []string {
		out := []string{""}
		frontier := []string{""}
		for l := 0; l < maxLen; l++ {
			var next []string
			for _, s := range frontier {
				for _, c := range []string{"a", "b"} {
					next = append(next, s+c)
				}
			}
			out = append(out, next...)
			frontier = next
		}
		return out
	}
	for _, in := range strs(4) {
		for _, q := range strs(5) {
			sellers := SubstringMatch(in, q)
			naive := NaiveSubstringMatch(in, q)
			if naive != sellers {
				t.Fatalf("(%q, %q): naive = %+v, Sellers = %+v", in, q, naive, sellers)
			}
		}
	}
}

func TestSubstringMatchEmptyCases(t *testing.T) {
	if m := SubstringMatch("", "query"); m.Distance != 0 || m.Start != 0 || m.End != 0 {
		t.Errorf("empty input: %+v", m)
	}
	if m := SubstringMatch("abc", ""); m.Distance != 3 {
		t.Errorf("empty query: %+v", m)
	}
	if m := NaiveSubstringMatch("", "q"); m.Distance != 0 {
		t.Errorf("naive empty input: %+v", m)
	}
	if m := NaiveSubstringMatch("ab", ""); m.Distance != 2 {
		t.Errorf("naive empty query: %+v", m)
	}
}

func TestMatchRatio(t *testing.T) {
	m := Match{Start: 0, End: 22, Distance: 5}
	got := m.Ratio()
	if got < 0.227 || got > 0.228 {
		// The paper's Figure 2C example: distance 5 over a 22-byte match
		// yields a 22.7% difference ratio.
		t.Errorf("ratio = %v, want ~0.227", got)
	}
	if (Match{}).Ratio() < 1e8 {
		t.Error("empty match must have a huge ratio")
	}
}

func TestSubstringMatchPrefersLongerOnTies(t *testing.T) {
	// Both "ab" at 0 and "ab" at 3 match with distance 0; earliest end wins
	// among equal lengths.
	m := SubstringMatch("ab", "ab cab")
	if m.Distance != 0 || m.Start != 0 || m.End != 2 {
		t.Errorf("match = %+v, want {0 2 0}", m)
	}
}

func TestSubstringMatchWhitespacePaddingAttack(t *testing.T) {
	// NTI evasion via whitespace trimming: the attacker pads the input with
	// spaces which the application strips. The query then contains the
	// unpadded payload; the distance equals the number of stripped spaces.
	payload := "-1 OR 1=1"
	padded := payload + strings.Repeat(" ", 30)
	q := "SELECT * FROM t WHERE id=" + payload
	m := SubstringMatch(padded, q)
	if m.Distance == 0 {
		t.Fatal("padded input should not match exactly")
	}
	if m.Ratio() <= 0.20 {
		t.Errorf("ratio %v should exceed the default threshold 0.20", m.Ratio())
	}
}
