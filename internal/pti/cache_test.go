package pti

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"joza/internal/core"
	"joza/internal/fragments"
	"joza/internal/sqltoken"
)

// mk builds a MySQL-dialect lruKey for the plain-LRU unit tests.
func mk(s string) lruKey { return makeKey(sqltoken.MySQL, s) }

// newTestLRU builds a plain lru.
func newTestLRU[V any](capacity int) *lru[V] {
	c := new(lru[V])
	c.init(capacity)
	return c
}

func TestLRUBasics(t *testing.T) {
	c := newTestLRU[[]valuePin](2)
	c.put(mk("a"), nil)
	c.put(mk("b"), nil)
	if _, _, ok := c.get(mk("a")); !ok {
		t.Error("a missing")
	}
	c.put(mk("c"), nil) // evicts b (a was touched)
	if _, _, ok := c.get(mk("b")); ok {
		t.Error("b should be evicted")
	}
	if _, _, ok := c.get(mk("a")); !ok {
		t.Error("a should remain")
	}
	if _, _, ok := c.get(mk("c")); !ok {
		t.Error("c should remain")
	}
	if c.len() != 2 {
		t.Errorf("len = %d", c.len())
	}
	// Overwrite updates value.
	pins := []valuePin{{text: "5"}}
	c.put(mk("a"), pins)
	if v, _, ok := c.get(mk("a")); !ok || len(v) != 1 {
		t.Error("overwrite failed")
	}
}

func TestLRUDefaultCapacity(t *testing.T) {
	c := newTestLRU[[]valuePin](0)
	for i := 0; i < 2000; i++ {
		c.put(mk(fmt.Sprintf("k%d", i)), nil)
	}
	if c.len() != 1024 {
		t.Errorf("len = %d, want 1024", c.len())
	}
}

func TestLRUConcurrent(t *testing.T) {
	c := newTestLRU[[]valuePin](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := mk(fmt.Sprintf("k%d", (seed+i)%100))
				c.put(key, nil)
				c.get(key)
			}
		}(g)
	}
	wg.Wait()
	if c.len() > 64 {
		t.Errorf("len = %d exceeds capacity", c.len())
	}
}

func TestCachedQueryCache(t *testing.T) {
	a := New(appFragments())
	c := NewCached(a, CacheQuery, 16)
	q := "SELECT * FROM records WHERE ID=5 LIMIT 5"
	if c.Analyze(q, nil).Attack {
		t.Fatal("benign flagged")
	}
	if c.Analyze(q, nil).Attack {
		t.Fatal("cached benign flagged")
	}
	st := c.Stats()
	if st.QueryHits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if c.Mode() != CacheQuery {
		t.Error("Mode")
	}
}

// TestAnalyzeBufLexesOnlyOnMiss pins the storage contract of AnalyzeBuf:
// a miss lexes into the caller's storage and returns that stream, and a
// query-cache hit leaves the storage as it was and returns no tokens, so
// storage holding another query's lex is never handed back as this one's.
func TestAnalyzeBufLexesOnlyOnMiss(t *testing.T) {
	c := NewCached(New(appFragments()), CacheQuery, 16)
	q := "SELECT * FROM records WHERE ID=5 LIMIT 5"
	var buf []sqltoken.Token
	var res core.Result
	toks, err := c.AnalyzeBuf(context.Background(), q, nil, &buf, nil, nil, &res)
	if err != nil || res.Attack {
		t.Fatalf("miss: %+v, %v", res, err)
	}
	if want := sqltoken.Lex(q); !reflect.DeepEqual(toks, want) || !reflect.DeepEqual(buf, want) {
		t.Fatalf("miss returned %v and left %v in storage, want %v in both", toks, buf, want)
	}
	const other = "SELECT 1"
	buf = sqltoken.Lex(other)
	toks, err = c.AnalyzeBuf(context.Background(), q, nil, &buf, nil, nil, &res)
	if err != nil || res.Attack || c.Stats().QueryHits != 1 {
		t.Fatalf("hit: %+v, %v, %+v", res, err, c.Stats())
	}
	if toks != nil || !reflect.DeepEqual(buf, sqltoken.Lex(other)) {
		t.Fatalf("hit returned %v and left %v in storage, want nil and the storage untouched", toks, buf)
	}
}

func TestCachedStructureCache(t *testing.T) {
	a := New(appFragments())
	c := NewCached(a, CacheQueryAndStructure, 16)
	// Same structure, different data values: second hits structure cache.
	if c.Analyze("SELECT * FROM records WHERE ID=5 LIMIT 5", nil).Attack {
		t.Fatal("benign flagged")
	}
	if c.Analyze("SELECT * FROM records WHERE ID=77 LIMIT 5", nil).Attack {
		t.Fatal("structure-cached benign flagged")
	}
	st := c.Stats()
	if st.StructureHits != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Promotion: the second query string is now in the exact cache.
	c.Analyze("SELECT * FROM records WHERE ID=77 LIMIT 5", nil)
	if got := c.Stats().QueryHits; got != 1 {
		t.Errorf("query hits after promotion = %d", got)
	}
}

func TestCachedAttackNeverCached(t *testing.T) {
	a := New(appFragments())
	c := NewCached(a, CacheQueryAndStructure, 16)
	atk := "SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5"
	for i := 0; i < 3; i++ {
		if !c.Analyze(atk, nil).Attack {
			t.Fatalf("iteration %d: attack missed", i)
		}
	}
	st := c.Stats()
	if st.Misses != 3 || st.QueryHits != 0 || st.StructureHits != 0 {
		t.Errorf("attack results must not be cached: %+v", st)
	}
}

func TestCachedStructureAttackVariantDetected(t *testing.T) {
	// A benign query populates the structure cache; an attack variant has
	// different structure (extra tokens) and must still be analyzed.
	a := New(appFragments())
	c := NewCached(a, CacheQueryAndStructure, 16)
	c.Analyze("SELECT * FROM records WHERE ID=5 LIMIT 5", nil)
	res := c.Analyze("SELECT * FROM records WHERE ID=5 OR 1=1 LIMIT 5", nil)
	if !res.Attack {
		t.Error("attack with different structure must not hit the cache")
	}
}

func TestCachedNoneMode(t *testing.T) {
	a := New(appFragments())
	c := NewCached(a, CacheNone, 16)
	q := "SELECT * FROM records WHERE ID=5 LIMIT 5"
	c.Analyze(q, nil)
	c.Analyze(q, nil)
	st := c.Stats()
	if st.Misses != 2 || st.QueryHits != 0 {
		t.Errorf("no-cache stats = %+v", st)
	}
}

func TestCacheModeString(t *testing.T) {
	cases := map[CacheMode]string{
		CacheNone:              "no-cache",
		CacheQuery:             "query-cache",
		CacheQueryAndStructure: "query+structure-cache",
		CacheMode(0):           "unknown",
	}
	for mode, want := range cases {
		if got := mode.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", mode, got, want)
		}
	}
}

func TestCachedConcurrent(t *testing.T) {
	a := New(appFragments())
	c := NewCached(a, CacheQueryAndStructure, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := fmt.Sprintf("SELECT * FROM records WHERE ID=%d LIMIT 5", (seed*7+i)%50)
				if c.Analyze(q, nil).Attack {
					t.Errorf("benign flagged: %q", q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStructureCacheHonorsValuePins: the structure key blanks literal
// values, but a cover may lean on one — " LIMIT 5" covers LIMIT only next
// to a 5, and "LIKE '%" covers LIKE only before a '%. A safe verdict then
// carries only to same-structure queries whose literals keep those bytes;
// a cover that leaves every literal alone carries to all.
func TestStructureCacheHonorsValuePins(t *testing.T) {
	set := fragments.NewSet([]string{
		"SELECT * FROM records WHERE ID=", " LIMIT 5",
		"SELECT id FROM posts WHERE title LIKE '%", "%' LIMIT 10",
		"SELECT * FROM users WHERE id=",
	})
	oracle := New(set)
	c := NewCached(New(set), CacheQueryAndStructure, 16)
	for _, tc := range []struct {
		query        string
		attack, sHit bool
	}{
		{"SELECT * FROM records WHERE ID=1 LIMIT 5", false, false},
		{"SELECT * FROM records WHERE ID=22 LIMIT 5", false, true},
		{"SELECT * FROM records WHERE ID=1 LIMIT 0", true, false},
		{"SELECT * FROM records WHERE ID=1 LIMIT 55", false, false}, // " LIMIT 5" occurs; the whole-literal pin is conservative
		{"SELECT id FROM posts WHERE title LIKE '%a%' LIMIT 10", false, false},
		{"SELECT id FROM posts WHERE title LIKE '%bcd%' LIMIT 10", false, true},
		{"SELECT id FROM posts WHERE title LIKE 'bcd%' LIMIT 10", true, false},
		{"SELECT id FROM posts WHERE title LIKE '%bcd' LIMIT 10", true, false},
		{"SELECT * FROM users WHERE id=1", false, false},
		{"SELECT * FROM users WHERE id=2", false, true},
	} {
		before := c.Stats().StructureHits
		got := c.Analyze(tc.query, nil)
		if want := oracle.Analyze(tc.query, nil); got.Attack != want.Attack || got.Attack != tc.attack {
			t.Errorf("%s: cached attack %v, uncached %v, want %v", tc.query, got.Attack, want.Attack, tc.attack)
		}
		if hit := c.Stats().StructureHits > before; hit != tc.sHit {
			t.Errorf("%s: structure hit %v, want %v", tc.query, hit, tc.sHit)
		}
	}
}
