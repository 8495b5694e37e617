package strdist

import (
	"math/rand"
	"strings"
	"testing"
)

// refThreshold is the specification SubstringMatchThreshold must follow:
// the plain matcher's best match, accepted iff its ratio is under
// threshold.
func refThreshold(input, query string, threshold float64) (Match, bool) {
	m := SubstringMatch(input, query)
	return m, m.Ratio() < threshold
}

func TestSubstringMatchThresholdAgreesWithPlain(t *testing.T) {
	cases := []struct {
		input, query string
	}{
		{"-1 OR 1=1", "SELECT * FROM data WHERE ID=-1 OR 1=1"},
		{"-1 OR 1=1 ", "SELECT * FROM t WHERE id=-1 OR 1=1"},
		{`-1 OR 1=1 /*'''''*/`, `SELECT * FROM data WHERE ID=-1 OR 1=1 /*\'\'\'\'\'*/`},
		{"LTEgT1IgMT0x", "SELECT * FROM ads WHERE id=-1 OR 1=1"},
		{"hello world", "SELECT 1"},
		{"abc", ""},
		{"", "SELECT 1"},
		{strings.Repeat("z", 200), "SELECT id FROM posts WHERE title LIKE '%zzz%'"},
		{"union select", "SELECT * FROM t WHERE a=1 UNION SELECT b FROM u"},
	}
	for _, th := range []float64{0.05, 0.20, 0.50} {
		for _, c := range cases {
			wantM, wantOK := refThreshold(c.input, c.query, th)
			gotM, gotOK, _ := SubstringMatchThreshold(c.input, c.query, th)
			if gotOK != wantOK {
				t.Errorf("th=%.2f input=%q query=%q: found=%v, want %v",
					th, c.input, c.query, gotOK, wantOK)
				continue
			}
			if gotOK && gotM != wantM {
				t.Errorf("th=%.2f input=%q query=%q: match=%+v, want %+v",
					th, c.input, c.query, gotM, wantM)
			}
		}
	}
}

func TestSubstringMatchThresholdRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := "abcdeE =OR'-1*/"
	randStr := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	for iter := 0; iter < 2000; iter++ {
		input := randStr(1 + rng.Intn(30))
		query := randStr(1 + rng.Intn(60))
		th := []float64{0.1, 0.2, 0.35}[rng.Intn(3)]
		wantM, wantOK := refThreshold(input, query, th)
		gotM, gotOK, _ := SubstringMatchThreshold(input, query, th)
		if gotOK != wantOK {
			t.Fatalf("iter %d: input=%q query=%q th=%.2f: found=%v want %v (plain match %+v)",
				iter, input, query, th, gotOK, wantOK, wantM)
		}
		if gotOK && gotM != wantM {
			t.Fatalf("iter %d: input=%q query=%q th=%.2f: match=%+v want %+v",
				iter, input, query, th, gotM, wantM)
		}
	}
}

func TestSubstringMatchThresholdPrunes(t *testing.T) {
	// A long input nowhere near the query must trip the band cut-off.
	input := strings.Repeat("x", 120)
	query := "SELECT id, title, body FROM posts WHERE id=42 ORDER BY id DESC"
	_, found, pruned := SubstringMatchThreshold(input, query, 0.20)
	if found {
		t.Error("junk input reported as matching")
	}
	if !pruned {
		t.Error("band cut-off did not engage for a hopeless long input")
	}
	// A verbatim input must still be found, same span as the plain matcher.
	payload := "-1 OR 1=1"
	q := "SELECT * FROM data WHERE ID=-1 OR 1=1"
	m, found, _ := SubstringMatchThreshold(payload, q, 0.20)
	if !found || m.Distance != 0 || q[m.Start:m.End] != payload {
		t.Errorf("verbatim payload: match=%+v found=%v", m, found)
	}
}

func TestSubstringMatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	input := "-1 OR 1=1 "
	query := "SELECT * FROM t WHERE id=-1 OR 1=1"
	// Warm the pool.
	SubstringMatch(input, query)
	if allocs := testing.AllocsPerRun(200, func() {
		SubstringMatch(input, query)
	}); allocs != 0 {
		t.Errorf("SubstringMatch allocs/op = %v, want 0", allocs)
	}
	SubstringMatchThreshold(input, query, 0.2)
	if allocs := testing.AllocsPerRun(200, func() {
		SubstringMatchThreshold(input, query, 0.2)
	}); allocs != 0 {
		t.Errorf("SubstringMatchThreshold allocs/op = %v, want 0", allocs)
	}
	Levenshtein("kitten", "sitting")
	if allocs := testing.AllocsPerRun(200, func() {
		Levenshtein("kitten", "sitting")
	}); allocs != 0 {
		t.Errorf("Levenshtein allocs/op = %v, want 0", allocs)
	}
}

func BenchmarkSubstringMatchThreshold(b *testing.B) {
	input := strings.Repeat("security notes ", 4) // 60 bytes, no match
	query := "SELECT id, title, body FROM posts WHERE id=42 ORDER BY id DESC LIMIT 10"
	b.Run("banded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			SubstringMatchThreshold(input, query, 0.20)
		}
	})
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			SubstringMatch(input, query)
		}
	})
}
