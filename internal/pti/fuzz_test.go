package pti

import (
	"reflect"
	"strings"
	"testing"

	"joza/internal/fragments"
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
			for pass := 0; pass < 2; pass++ {
				for _, q := range queries {
					got, want := c.Analyze(q, nil), oracle.Analyze(q, nil)
					if got.Attack != want.Attack || !reflect.DeepEqual(got.Reasons, want.Reasons) {
						t.Fatalf("%s %s pass %d, query %q: cached attack=%v reasons=%v, uncached attack=%v reasons=%v",
							d, mode, pass, q, got.Attack, got.Reasons, want.Attack, want.Reasons)
					}
				}
			}
		}
	})
}
