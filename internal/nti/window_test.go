package nti

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"joza/internal/core"
	"joza/internal/evasion"
	"joza/internal/sqltoken"
	"joza/internal/strdist"
)

// matchFunc is the shape both matcher engines share.
type matchFunc func(ctx context.Context, input, query string, threshold float64, maxCells int) (strdist.Match, bool, bool, error)

var engines = []struct {
	name  string
	match matchFunc
	opts  []Option
}{
	{"bitparallel", strdist.BitParallelThresholdBudgetCtx, nil},
	{"sellers", strdist.SubstringMatchThresholdBudgetCtx, []Option{WithSellersMatcher()}},
}

// windowSeeds are the pairs FuzzWindowFilter starts from: wp-write's near
// misses (multi-term searches against their LIKE query, author words and
// comment bodies against the other queries of a post), its absent short
// fields (an author against the options query, a multi-word search
// against its LIKE query and the options query), the lab's NTI
// evasion mutants against the escaped queries they reach, and long
// inputs from 1 to 8 KB.
func windowSeeds() [][2]string {
	body := "lorem travel notes security coffee amet morning elit update blog release vitae dolor ipsum"
	seeds := [][2]string{
		{windowSearchQuery, windowSearchValue},
		{"SELECT id, title FROM posts WHERE title LIKE '%travel%' OR title LIKE '%morning%' LIMIT 10", "travel morning"},
		{"SELECT name, value FROM options WHERE name='siteurl'", "sagittis"},
		{"SELECT id, title, body FROM posts WHERE id=17", "consectetur"},
		{"SELECT COUNT(*) FROM comments WHERE post_id=17", "release"},
		{"SELECT name, value FROM options WHERE name='siteurl'", "tellus"},
		{"SELECT name, value FROM options WHERE name='siteurl'", "lorem travel"},
		{"SELECT id, title FROM posts WHERE title LIKE '%vitae%' OR title LIKE '%blog%' LIMIT 10", "vitae blog"},
		{"INSERT INTO comments (post_id, author, body) VALUES (17, 'tellus', '" + body + "')", "tellus " + body},
		{"SELECT id, title, body FROM posts WHERE id=17", body},
		{"SELECT * FROM users WHERE name='admin\\' OR 1=1 -- '", "admin' OR 1=1 -- "},
	}
	for _, payload := range []string{
		"-1 UNION SELECT username, password FROM users",
		"-1 UNION SELECT user(), version()",
		"1 AND SLEEP(5)",
	} {
		stuffed := evasion.QuoteStuffing(payload, DefaultThreshold)
		seeds = append(seeds, [2]string{
			"SELECT id, views FROM posts WHERE id=" + strings.ReplaceAll(stuffed, "'", `\'`), stuffed,
		})
		padded := evasion.WhitespacePadding("alice' AND "+payload+" -- -", DefaultThreshold)
		seeds = append(seeds, [2]string{
			"SELECT id, stars FROM ratings WHERE voter='" + strings.TrimSpace(padded) + "'", padded,
		})
	}
	// A 1 KB comment that reaches the query escaped matches; at 4 and
	// 8 KB, an apostrophe every third byte inflates the escaped copy
	// past the threshold, so the pair passes the prefilter and misses.
	value, escaped := changedText(1 << 10)
	seeds = append(seeds, [2]string{"INSERT INTO comments (body) VALUES ('" + escaped + "')", value})
	for _, n := range []int{4 << 10, 8 << 10} {
		value := strings.Repeat("ab'", n/3+1)[:n]
		seeds = append(seeds,
			[2]string{"INSERT INTO comments (body) VALUES ('" + strings.ReplaceAll(value, "'", `\'`) + "')", value},
			[2]string{"SELECT id, title, body FROM posts WHERE id=17", value},
		)
	}
	return seeds
}

// FuzzWindowFilter holds the prefilter exact under both matcher engines:
// no pair the partition filter, the trigram screen or the window pass
// rejects has a match under the threshold, every match the whole-query
// matcher finds lies in the candidate range, matching that range alone
// returns the same decision and, bit for bit, the same Match, and an
// analyzer with the prefilter returns what one without it returns.
func FuzzWindowFilter(f *testing.F) {
	for _, s := range windowSeeds() {
		f.Add(s[0], s[1], uint8(2))
	}
	// At threshold 0.35 these pairs' best match starts n bytes before the
	// first passing end and ends at the last: a range one byte narrower at
	// either side loses it.
	f.Add(" b Xba ccXXXX ", "aac", uint8(3))
	f.Add("b bbaaba aX   X", "aacaa", uint8(3))
	f.Fuzz(func(t *testing.T, query, value string, sel uint8) {
		if len(value) > 8<<10 || len(query) > 16<<10 {
			return
		}
		threshold := []float64{0.05, 0.1, 0.2, 0.35, 0.5}[int(sel)%5]
		ctx := context.Background()
		a := New(WithThreshold(threshold))
		if value != "" && !strings.Contains(query, value) {
			var st checkState
			lo, hi, ok := a.candidateRange(value, query, &st)
			n := len(value)
			k := strdist.MaxQualifyingDistance(n, threshold, len(query))
			partitioned := k > 0 && k < n && k+1 <= maxPieces && !pieceOccurs(value, query, k+1)
			screened := k > 0 && k < n && (n-gramQ+1)-gramQ*k > 0 &&
				!st.ensureGrams(query).hasAtLeast(value, (n-gramQ+1)-gramQ*k)
			windowed := false
			if k > 0 && k < n {
				_, _, wok := windowSpan(value, query, k)
				windowed = !wok
			}
			st.release()
			for _, e := range engines {
				if e.name == "sellers" && n*len(query) > 1<<22 {
					continue // the whole-query DP is too slow to fuzz at this size
				}
				full, found, _, err := e.match(ctx, value, query, threshold, 0)
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				switch {
				case found && partitioned:
					t.Fatalf("%s: partition filter rejected a match %+v (value %q, query %q, th %v)", e.name, full, value, query, threshold)
				case found && screened:
					t.Fatalf("%s: trigram screen rejected a match %+v (value %q, query %q, th %v)", e.name, full, value, query, threshold)
				case found && windowed:
					t.Fatalf("%s: window pass rejected a match %+v (value %q, query %q, th %v)", e.name, full, value, query, threshold)
				case found && !ok:
					t.Fatalf("%s: prefilter rejected a match %+v (value %q, query %q, th %v)", e.name, full, value, query, threshold)
				case found && (full.Start < lo || full.End > hi):
					t.Fatalf("%s: match %+v outside the candidate range [%d, %d) (value %q, query %q, th %v)", e.name, full, lo, hi, value, query, threshold)
				}
				if !ok {
					continue
				}
				bounded, bfound, _, err := e.match(ctx, value, query[lo:hi], threshold, 0)
				if err != nil {
					t.Fatalf("%s bounded: %v", e.name, err)
				}
				bounded.Start += lo
				bounded.End += lo
				if bfound != found || (found && bounded != full) {
					t.Fatalf("%s: bounded to [%d, %d): %+v found %v; whole query: %+v found %v (value %q, query %q, th %v)",
						e.name, lo, hi, bounded, bfound, full, found, value, query, threshold)
				}
			}
		}
		if len(value) > maxApproxInputLen {
			// Past the cap the analyzer without the prefilter fails the
			// check over budget wherever the fast path misses.
			return
		}
		inputs := []Input{{Source: "get", Name: "q", Value: value}}
		for _, e := range engines {
			if e.name == "sellers" && len(value)*len(query) > 1<<22 {
				continue
			}
			var (
				want, got  core.Result
				wbuf, gbuf []sqltoken.Token
			)
			werr := New(append([]Option{WithThreshold(threshold), WithoutPrefilter()}, e.opts...)...).AnalyzeBuf(ctx, query, nil, &wbuf, inputs, nil, &want)
			gerr := New(append([]Option{WithThreshold(threshold)}, e.opts...)...).AnalyzeBuf(ctx, query, nil, &gbuf, inputs, nil, &got)
			if gerr != nil || werr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: with prefilter %+v (%v), without %+v (%v) (value %q, query %q, th %v)",
					e.name, got, gerr, want, werr, value, query, threshold)
			}
		}
	})
}

// TestReleasedScreenIsZero builds the trigram screen over random queries
// of many lengths and requires release to hand the bitmap back to its
// pool all zero, so the next check's screen holds only its own query.
func TestReleasedScreenIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const alphabet = "SELECT *FROMWHERE=',()abcdefghijklmnopqrstuvwxyz0123456789 "
	for i := 0; i < 500; i++ {
		q := make([]byte, rng.Intn(600))
		for j := range q {
			q[j] = alphabet[rng.Intn(len(alphabet))]
		}
		var st checkState
		g := st.ensureGrams(string(q))
		st.release()
		for w, bits := range g {
			if bits != 0 {
				t.Fatalf("%d-byte query: released screen word %d = %#x, want 0", len(q), w, bits)
			}
		}
	}
}
