package pti

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"joza/internal/core"
	"joza/internal/fragments"
	"joza/internal/profile"
	"joza/internal/sqltoken"
)

// fuzzFragments is the application the cache-soundness fuzzer protects:
// upper- and lowercase spellings of one statement, so a key that folded
// case would share entries between a covered query and an uncovered one.
var fuzzFragments = []string{
	"SELECT * FROM records WHERE ID=",
	"select * from records where id=",
	" LIMIT 5",
	"INSERT INTO posts (title, body) VALUES (",
	", '",
	"')",
}

// FuzzCacheSoundness runs newline-separated query sequences through Cached
// in every CacheMode, twice so the second pass hits what the first cached,
// and requires each verdict to equal an uncached analyzer's: a cache may
// skip work, never change an answer. DESIGN §6 records the bug class this
// guards against — a case-folding structure key let a covered lowercase
// query certify its uncovered uppercase twin as safe.
//
// The skeleton memo rides along as the profile stage drives it: only a
// query-cache hit hands one out, a memo served on a hit must equal
// profile.SkeletonDialect of the query, and an empty one is filled with
// it. The small capacity puts evictions between fill and read.
func FuzzCacheSoundness(f *testing.F) {
	f.Add(uint8(0), "select * from records where id=1\nSELECT * FROM records WHERE ID=1\nSELECT * FROM RECORDS WHERE ID=1")
	f.Add(uint8(0), "SELECT * FROM records WHERE ID=5 LIMIT 5\nSELECT * FROM records WHERE ID=-1 UNION SELECT 1 LIMIT 5\nSELECT * FROM records WHERE ID=6 LIMIT 5")
	f.Add(uint8(0), "INSERT INTO posts (title, body) VALUES (1, 'a')\nINSERT INTO posts (title, body) VALUES (1, 'a' OR 1=1 -- ')")
	f.Add(uint8(1), "SELECT * FROM records WHERE ID='a'\nSELECT * FROM records WHERE ID=E'a\\' OR 1=1 --'")
	f.Add(uint8(2), "SELECT * FROM records WHERE ID=\"x\"\nSELECT * FROM records WHERE ID=1 # x")
	modes := []CacheMode{CacheNone, CacheQuery, CacheQueryAndStructure}
	f.Fuzz(func(t *testing.T, dialect uint8, seq string) {
		ds := sqltoken.Dialects()
		d := ds[int(dialect)%len(ds)]
		set := fragments.NewSetDialect(d, fuzzFragments)
		oracle := New(set, WithDialect(d))
		queries := strings.Split(seq, "\n")
		if len(queries) > 32 {
			queries = queries[:32]
		}
		for _, mode := range modes {
			// A small capacity makes eviction part of every sequence.
			c := NewCached(New(set, WithDialect(d)), mode, 4)
			var buf []sqltoken.Token
			for pass := 0; pass < 2; pass++ {
				for _, q := range queries {
					var memo SkeletonMemo
					hits := c.Stats().QueryHits
					var got core.Result
					_, err := c.AnalyzeBuf(context.Background(), q, nil, &buf, &memo, nil, &got)
					want := oracle.Analyze(q, nil)
					if err != nil || got.Attack != want.Attack || !reflect.DeepEqual(got.Reasons, want.Reasons) {
						t.Fatalf("%s %s pass %d, query %q: cached attack=%v reasons=%v err=%v, uncached attack=%v reasons=%v",
							d, mode, pass, q, got.Attack, got.Reasons, err, want.Attack, want.Reasons)
					}
					if hit := c.Stats().QueryHits > hits; hit != (memo.ref.e != nil) {
						t.Fatalf("%s %s query %q: query-cache hit %v, memo handed %v", d, mode, q, hit, memo.ref.e != nil)
					}
					sk := profile.SkeletonDialect(d, q)
					if served := memo.Skeleton(); served != "" && served != sk {
						t.Fatalf("%s %s query %q: memo served %q, skeleton is %q", d, mode, q, served, sk)
					}
					memo.Set(sk)
				}
			}
		}
	})
}

// FuzzPTICover checks the parse-first cover against a brute-force oracle
// that searches every fragment at every query position: a critical token
// is covered exactly when one occurrence of one fragment contains it. Each
// newline-separated line of frags is a fragment and of seq a query; the
// queries run in order through one analyzer per configuration, so the MRU
// variants also answer from a warm list. Verdicts and reasons must equal
// the oracle's, and every marking must be a real occurrence containing
// its token.
func FuzzPTICover(f *testing.F) {
	// Fragments "O" and "R" never cover the critical token OR.
	f.Add("O\nR\nSELECT * FROM t WHERE a=", "SELECT * FROM t WHERE a=1 OR 1\nSELECT * FROM t WHERE a=1 O R 1", uint8(0))
	// A comment is one critical token: "/*" and "*/" do not cover it.
	f.Add("SELECT * FROM t WHERE id=\n/*\n*/\n/* ok */", "SELECT * FROM t WHERE id=1 /* evasion '' block */\nSELECT * FROM t WHERE id=1 /* ok */", uint8(0))
	f.Add("FROM records WHERE ID=\nFROM records", "FROM records WHERE ID=7\nFROM records WHERE ID=7 OR 1=1", uint8(1))
	f.Add("SELECT * FROM records WHERE ID=\n LIMIT 5\n$$", "SELECT * FROM records WHERE ID=$$x$$ LIMIT 5", uint8(1))
	f.Add("aa\naaa\n=a", "aaaa=aa aaa", uint8(2))
	f.Fuzz(func(t *testing.T, frags, seq string, dialect uint8) {
		ds := sqltoken.Dialects()
		d := ds[int(dialect)%len(ds)]
		texts := strings.Split(frags, "\n")
		if len(texts) > 16 {
			texts = texts[:16]
		}
		set := fragments.NewSetKeepAll(texts)
		analyzers := []*Analyzer{
			New(set, WithDialect(d)),
			New(set, WithDialect(d), WithNaiveMatcher()),
			New(set, WithDialect(d), WithMRU(4)),
			New(set, WithDialect(d), WithNaiveMatcher(), WithMRU(4)),
		}
		queries := strings.Split(seq, "\n")
		if len(queries) > 8 {
			queries = queries[:8]
		}
		for _, q := range queries {
			toks := d.Lex(q)
			var want []core.Reason
			var covered []sqltoken.Token
			for _, tok := range toks {
				if !tok.Critical() {
					continue
				}
				if bruteCovered(set, q, tok) {
					covered = append(covered, tok)
				} else {
					want = append(want, core.Reason{Token: tok, Detail: "critical token not contained in any trusted fragment"})
				}
			}
			for _, a := range analyzers {
				got := a.Analyze(q, toks)
				if got.Attack != (len(want) > 0) || !reflect.DeepEqual(got.Reasons, want) {
					t.Fatalf("%v, %s, query %q: attack=%v reasons=%v, oracle reasons=%v",
						a, d, q, got.Attack, got.Reasons, want)
				}
				if len(got.Markings) != len(covered) {
					t.Fatalf("%v, query %q: %d markings for %d covered tokens", a, q, len(got.Markings), len(covered))
				}
				for i, m := range got.Markings {
					tok := covered[i]
					if q[m.Span.Start:m.Span.End] != m.Source || !set.Contains(m.Source) ||
						m.Span.Start > tok.Start || tok.End > m.Span.End {
						t.Fatalf("%v, query %q: marking %+v is not an occurrence containing %q [%d,%d)",
							a, q, m, tok.Text, tok.Start, tok.End)
					}
				}
			}
		}
	})
}

// bruteCovered reports whether some occurrence of some fragment of set in
// query contains tok.
func bruteCovered(set *fragments.Set, query string, tok sqltoken.Token) bool {
	for _, f := range set.Fragments() {
		for from := 0; from < len(query); from++ {
			i := strings.Index(query[from:], f)
			if i < 0 {
				break
			}
			if at := from + i; at <= tok.Start && tok.End <= at+len(f) {
				return true
			}
			from += i
		}
	}
	return false
}
