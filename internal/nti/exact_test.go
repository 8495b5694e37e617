package nti

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"joza/internal/core"
	"joza/internal/strdist"
)

// indexLoopSpans is the exact-occurrence scan exactSpans replaced, kept
// as its oracle: strings.Index restarted one byte past each occurrence,
// charging each later search's probed bytes against budget.
func indexLoopSpans(value, query string, budget int, out []strdist.Match) ([]strdist.Match, bool, error) {
	idx := strings.Index(query, value)
	if idx < 0 || value == "" {
		return out, false, nil
	}
	out = append(out, strdist.Match{Start: idx, End: idx + len(value)})
	for from := idx; ; {
		nxt := strings.Index(query[from+1:], value)
		if nxt < 0 {
			break
		}
		if budget > 0 {
			if budget -= nxt + len(value); budget <= 0 {
				return nil, false, fmt.Errorf("nti: exact-occurrence scan against %d-byte query: %w",
					len(query), core.ErrOverBudget)
			}
		}
		from = from + 1 + nxt
		if last := &out[len(out)-1]; from <= last.End {
			last.End = from + len(value)
			continue
		}
		if len(out) >= maxExactRegions {
			break
		}
		out = append(out, strdist.Match{Start: from, End: from + len(value)})
	}
	return out, true, nil
}

// checkExactScan requires exactSpans to report what indexLoopSpans does:
// the same regions, the same found flag, and an over-budget failure
// exactly when the oracle fails.
func checkExactScan(t *testing.T, value, query string, budget int) {
	t.Helper()
	want, wantFound, wantErr := indexLoopSpans(value, query, budget, nil)
	var (
		got   []strdist.Match
		found bool
		err   error
	)
	if p0 := strings.Index(query, value); p0 >= 0 && value != "" {
		got, err = exactSpans(value, query, p0, budget, nil)
		found = err == nil
	}
	if (err != nil) != (wantErr != nil) || err != nil && !errors.Is(err, core.ErrOverBudget) {
		t.Fatalf("value %q, query %q, budget %d: err %v, oracle %v", value, query, budget, err, wantErr)
	}
	if err != nil {
		return
	}
	if found != wantFound || len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("value %q, query %q, budget %d: found %v %v, oracle %v %v", value, query, budget, found, got, wantFound, want)
	}
}

func TestExactScanMatchesIndexLoop(t *testing.T) {
	insert := "INSERT INTO comments (post_id, author, body) VALUES (768, 'dolor', 'tellus dolor morning dolordolor lorem')"
	for _, tc := range []struct {
		value, query string
		budget       int
	}{
		{"dolor", insert, 0},
		{"dolor", insert, 40},
		{"dolor", insert, 200},
		{"768", insert, 0},
		{"tellus dolor morning dolordolor lorem", insert, 0},
		{"xx", "SELECT * FROM t WHERE a='xxxx'", 0},                          // overlapping
		{"ab", "abab ab", 0},                                                 // adjacent, then apart
		{"x", "SELECT '" + strings.Repeat("x,", 2*maxExactRegions) + "'", 0}, // region cap
		{"x", "SELECT '" + strings.Repeat("x,", 2*maxExactRegions) + "'", 3 * maxExactRegions},
		{"x", "SELECT '" + strings.Repeat("x", 5000) + "'", 1000},
		{"zz", insert, 0},
		{insert + "!", insert, 0},
		{insert, insert, 0},
	} {
		checkExactScan(t, tc.value, tc.query, tc.budget)
	}
}

// FuzzExactScan is the differential fuzz of the one-pass exact scan
// against the strings.Index loop it replaced: regions (with overlapping
// and adjacent occurrences coalesced, and the region cap), the found
// flag, and over-budget outcomes must all agree. reps repeats value's
// neighbourhood so occurrences crowd, and budget is drawn small enough
// to run out.
func FuzzExactScan(f *testing.F) {
	f.Add("dolor", "INSERT INTO comments (post_id, author, body) VALUES (768, 'dolor', 'tellus dolor dolordolor')", uint8(1), uint16(0))
	f.Add("aa", "aaaaXaa", uint8(3), uint16(9))
	f.Add("x", "x,", uint8(200), uint16(0))
	f.Add("x", "x,", uint8(255), uint16(900))
	f.Add("abc", "zabcabcz", uint8(2), uint16(5))
	f.Add("'", "SELECT * FROM t WHERE a='1' OR ''=''", uint8(1), uint16(0))
	f.Fuzz(func(t *testing.T, value, query string, reps uint8, budget uint16) {
		if len(value) > 64 || len(query) > 256 {
			return
		}
		checkExactScan(t, value, strings.Repeat(query, 1+int(reps)%32), int(budget))
	})
}

// BenchmarkExactScan times the exact-occurrence scan, and the strings.Index
// loop it replaced, on the pairs of a generated comment INSERT (the author
// recurs in the body), a numeric id against a short read, and a search
// term against a query it does not occur in.
func BenchmarkExactScan(b *testing.B) {
	body := "tellus notes morning ipsum release travel lorem integer elit ipsum amet adipiscing update consectetur security sagittis notes dolor ipsum update notes amet vitae ipsum adipiscing amet amet morning lorem lorem integer dolor vitae release consectetur travel tellus update vitae elit travel update"
	insert := "INSERT INTO comments (post_id, author, body) VALUES (768, 'dolor', '" + body + "')"
	pairs := []struct{ name, value, query string }{
		{"insert-author", "dolor", insert},
		{"insert-body", body, insert},
		{"insert-id", "768", insert},
		{"read-id", "768", "SELECT id, title, body FROM posts WHERE id=768"},
		{"absent-term", "elit", "SELECT name, value FROM options WHERE name='siteurl'"},
	}
	for _, p := range pairs {
		b.Run(p.name+"/onepass", func(b *testing.B) {
			var buf [4]strdist.Match
			for i := 0; i < b.N; i++ {
				if p0 := strings.Index(p.query, p.value); p0 >= 0 {
					exactSpans(p.value, p.query, p0, 0, buf[:0])
				}
			}
		})
		b.Run(p.name+"/indexloop", func(b *testing.B) {
			var buf [4]strdist.Match
			for i := 0; i < b.N; i++ {
				indexLoopSpans(p.value, p.query, 0, buf[:0])
			}
		})
	}
}
