package pti_test

import (
	"strings"
	"testing"

	"joza/internal/profile"
	"joza/internal/sqlparse"
	"joza/internal/sqltoken"
	"joza/internal/testbed"
)

// FuzzSkeletonIsFunctionOfStructureKey is the proof obligation of the
// structure cache's skeleton memo (pti.SkeletonMemo): two queries with one
// structure key under a dialect have one profile skeleton under it, so a
// skeleton memoized on a structure entry serves every query that hits it.
//
// Same-structure queries differ in their literal values, so each input is
// a query and newline-separated replacement values. The query is rebuilt
// with its literals replaced in turn (a string keeps its quote bytes), and
// whenever the rebuilt query has the original's structure key, the two
// skeletons must be equal. The values, read as one query, are compared
// with the original too. A query holding a NUL never reaches the
// structure cache, so such pairs are skipped.
func FuzzSkeletonIsFunctionOfStructureKey(f *testing.F) {
	seeds := []string{
		"INSERT INTO comments (post_id, author, body) VALUES (768, 'dolor', 'tellus notes morning ipsum')",
		"SELECT id, title FROM posts WHERE title LIKE '%elit%' LIMIT 10",
		"SELECT id, title FROM posts WHERE title LIKE '%a%' OR title LIKE '%b%' LIMIT 10",
		"SELECT name, value FROM options WHERE name='siteurl'",
		"SELECT COUNT(*) FROM comments WHERE post_id=768",
		"SELECT title FROM posts WHERE id IN (1, 2, 3)",
		"SELECT a AS x FROM t WHERE b = -1.5e3 AND c = ? AND d = :name",
		"SELECT * FROM t WHERE s = E'a\\'b' AND u = $$x$$ AND v = $q$y$q$",
		"SELECT * FROM t WHERE a = 'x' /* c */ AND b = \"y\" # tail",
		"SELECT * FROM t WHERE a = 'unterminated",
	}
	for _, s := range testbed.Specs() {
		seeds = append(seeds, s.BuildQuery(s.Benign), s.BuildQuery(s.Exploit))
	}
	for i, q := range seeds {
		for d := range sqltoken.Dialects() {
			f.Add(uint8(d), q, []string{"1\n'x'\nabc", "-7\n0x1F\n'", "1.5\n\n%x%"}[i%3])
		}
	}
	f.Fuzz(func(t *testing.T, dialect uint8, query, values string) {
		ds := sqltoken.Dialects()
		d := ds[int(dialect)%len(ds)]
		vals := strings.Split(values, "\n")
		for _, other := range []string{substituteLiterals(d, query, vals), values} {
			if strings.IndexByte(query, 0) >= 0 || strings.IndexByte(other, 0) >= 0 {
				continue
			}
			if sqlparse.StructureKeyDialect(d, query) != sqlparse.StructureKeyDialect(d, other) {
				continue
			}
			if a, b := profile.SkeletonDialect(d, query), profile.SkeletonDialect(d, other); a != b {
				t.Fatalf("%s: one structure key, two skeletons:\n%q -> %q\n%q -> %q", d, query, a, other, b)
			}
		}
	})
}

// substituteLiterals returns query, lexed under d, with the value of its
// i-th literal replaced by vals[i % len(vals)]: a number's whole text, a
// string's text inside its quote bytes.
func substituteLiterals(d sqltoken.Dialect, query string, vals []string) string {
	var b strings.Builder
	pos, n := 0, 0
	for _, t := range d.Lex(query) {
		b.WriteString(query[pos:t.Start])
		switch t.Kind {
		case sqltoken.KindNumber:
			b.WriteString(vals[n%len(vals)])
			n++
		case sqltoken.KindString:
			b.WriteByte(query[t.Start])
			b.WriteString(vals[n%len(vals)])
			n++
			if !t.Unterminated {
				b.WriteByte(query[t.End-1])
			}
		default:
			b.WriteString(query[t.Start:t.End])
		}
		pos = t.End
	}
	b.WriteString(query[pos:])
	return b.String()
}
