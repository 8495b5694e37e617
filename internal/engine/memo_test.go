package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"joza/internal/core"
	"joza/internal/fragments"
	"joza/internal/profile"
	"joza/internal/pti"
	"joza/internal/sqltoken"
)

// memoFragments covers the test queries, so PTI caches them as safe: a
// post lookup, an IN-list, and the shapes of a comment INSERT and a
// title search.
var memoFragments = []string{
	"SELECT * FROM posts WHERE id=", " LIMIT 5", "SELECT title FROM posts WHERE id IN (",
	"INSERT INTO comments (post_id, author, body) VALUES (", ", '", "', '", "')",
	"SELECT id, title FROM posts WHERE title LIKE '%", "%' LIMIT 10",
}

// tokensSeen returns a stage that records the token stream earlier stages
// published, standing in for NTI: nil means no stage lexed.
func tokensSeen(dst *[]sqltoken.Token) Func {
	return Func{StageName: core.AnalyzerNTI, Fn: func(ctx context.Context, req Request, st *State) (core.Result, error) {
		*dst = st.Tokens()
		return core.Result{Analyzer: core.AnalyzerNTI}, nil
	}}
}

// TestProfileStageSkeletonMemo walks the memo's lifecycle through one
// query-cache entry. The first check misses and lexes; the second hits,
// finds the memo empty, lexes and fills it; the third answers from the
// memo without lexing. A store swap keeps the memo, and the lookup runs
// against the new store. A learning recorder over the same cache never
// takes the memo: it lexes on every hit.
func TestProfileStageSkeletonMemo(t *testing.T) {
	const site, query = "plugin:posts", "SELECT * FROM posts WHERE id=7 LIMIT 5"
	want := profile.SkeletonDialect(sqltoken.MySQL, query)
	rec := profile.NewRecorder()
	rec.Record(site, query)
	cached := pti.NewCached(pti.New(fragments.NewSet(memoFragments)), pti.CacheQuery, 16)
	var toks []sqltoken.Token
	snap := func(profiles ProfileStage) *Snapshot {
		return &Snapshot{PTI: cached, Analyzers: []Analyzer{PTIStage{Analyzer: cached}, profiles, tokensSeen(&toks)}}
	}
	e := New(snap(ProfileStage{Store: rec.Store()}))
	check := func(step string, wantOutcome string, wantLex bool) {
		t.Helper()
		v, err := e.Check(context.Background(), Request{Query: query, Site: site})
		if err != nil {
			t.Fatal(err)
		}
		if v.Skeleton != want || v.ProfileOutcome != wantOutcome {
			t.Fatalf("%s: skeleton %q (%s), want %q (%s)", step, v.Skeleton, v.ProfileOutcome, want, wantOutcome)
		}
		if lexed := toks != nil; lexed != wantLex {
			t.Fatalf("%s: lexed %v, want %v", step, lexed, wantLex)
		}
	}
	check("miss", "seen", true)
	check("hit, memo empty", "seen", true)
	check("hit, memo set", "seen", false)

	other := profile.NewRecorder()
	other.Record(site, "SELECT 1")
	e.Swap(snap(ProfileStage{Store: other.Store()}))
	check("hit after store swap", "unseen", false)

	e.Swap(snap(ProfileStage{Recorder: profile.NewRecorder()}))
	check("hit, learning", "learned", true)
}

// TestStructureHitSkeletonMemo walks the memo through a structure-cache
// entry: comment INSERTs that differ only in their values. The first
// misses; the second hits the structure, finds its memo empty and fills
// it, and the query entry its hit promoted, which got no skeleton, fills
// its own at its first hit. The third hits the filled structure memo, and
// the query entry it promotes carries it, so that entry's first hit
// answers without a lex.
func TestStructureHitSkeletonMemo(t *testing.T) {
	const site = "wp:comment-insert"
	insert := func(id int, author, body string) string {
		return fmt.Sprintf("INSERT INTO comments (post_id, author, body) VALUES (%d, '%s', '%s')", id, author, body)
	}
	first, second, third := insert(768, "dolor", "tellus notes"), insert(789, "update", "vitae morning coffee"), insert(5, "amet", "x")
	want := profile.SkeletonDialect(sqltoken.MySQL, first)
	rec := profile.NewRecorder()
	rec.Record(site, first)
	cached := pti.NewCached(pti.New(fragments.NewSet(memoFragments)), pti.CacheQueryAndStructure, 16)
	var toks []sqltoken.Token
	e := New(&Snapshot{PTI: cached, Analyzers: []Analyzer{PTIStage{Analyzer: cached}, ProfileStage{Store: rec.Store()}, tokensSeen(&toks)}})
	check := func(step, query string, wantLex bool) {
		t.Helper()
		v, err := e.Check(context.Background(), Request{Query: query, Site: site})
		if err != nil {
			t.Fatal(err)
		}
		if v.Skeleton != want || v.ProfileOutcome != "seen" {
			t.Fatalf("%s: skeleton %q (%s), want %q (seen)", step, v.Skeleton, v.ProfileOutcome, want)
		}
		if lexed := toks != nil; lexed != wantLex {
			t.Fatalf("%s: lexed %v, want %v", step, lexed, wantLex)
		}
	}
	check("miss", first, true)
	check("structure hit, memo empty", second, true)
	check("promoted entry's first hit, memo empty", second, true)
	check("promoted entry's second hit", second, false)
	check("structure hit, memo set", third, true)
	check("promoted entry carrying the memo", third, false)
	if st := cached.Stats(); st.StructureHits != 2 || st.QueryHits != 3 || st.Misses != 1 {
		t.Fatalf("cache stats %+v, want 2 structure hits, 3 query hits, 1 miss", st)
	}
}

// FuzzSkeletonMemo runs newline-separated query sequences, twice, through
// a sited pipeline with both PTI caches (the Guard's default), four
// entries each, so structure hits occur, hand out the structure entry's
// memo, and evictions fall between a memo's fill and its reads. Every verdict's attack bit and
// profile evidence must equal those of a pipeline without a query cache
// (and so without memos), and every served skeleton must be
// profile.SkeletonDialect of its query. The store is trained on the
// sequence's even lines, so seen and unseen skeletons both occur.
func FuzzSkeletonMemo(f *testing.F) {
	f.Add(uint8(0), "SELECT * FROM posts WHERE id=7 LIMIT 5\nSELECT * FROM posts WHERE id=8 LIMIT 5\nSELECT * FROM posts WHERE id=7 LIMIT 5")
	f.Add(uint8(0), "SELECT title FROM posts WHERE id IN (1, 2)\nSELECT title FROM posts WHERE id IN (1, 2, 3)\nSELECT * FROM posts WHERE id=1 OR 1=1 LIMIT 5")
	f.Add(uint8(1), "SELECT * FROM posts WHERE id=$$x$$ LIMIT 5\nSELECT * FROM posts WHERE id='a' LIMIT 5")
	f.Add(uint8(2), "SELECT * FROM posts WHERE id=\"x\" LIMIT 5\n\nSELECT * FROM posts WHERE id=1 LIMIT 5")
	// Same-structure runs, whose later lines hit the structure cache: wp
	// comment INSERTs, title searches, and an IN-list whose length changes
	// the structure but not the skeleton.
	f.Add(uint8(0), "INSERT INTO comments (post_id, author, body) VALUES (768, 'dolor', 'tellus notes')\n"+
		"INSERT INTO comments (post_id, author, body) VALUES (789, 'update', 'vitae morning')\n"+
		"INSERT INTO comments (post_id, author, body) VALUES (585, 'coffee', 'integer security')\n"+
		"INSERT INTO comments (post_id, author, body) VALUES (768, 'dolor', 'tellus notes')")
	f.Add(uint8(0), "SELECT id, title FROM posts WHERE title LIKE '%elit%' LIMIT 10\n"+
		"SELECT id, title FROM posts WHERE title LIKE '%amet%' LIMIT 10\n"+
		"SELECT id, title FROM posts WHERE title LIKE '%x' OR 1=1 -- %' LIMIT 10\n"+
		"SELECT id, title FROM posts WHERE title LIKE '%lorem%' LIMIT 10")
	f.Add(uint8(1), "INSERT INTO comments (post_id, author, body) VALUES (1, 'a', 'b')\n"+
		"INSERT INTO comments (post_id, author, body) VALUES (2, E'c', 'd')\n"+
		"INSERT INTO comments (post_id, author, body) VALUES (3, 'e', $$f$$)\n"+
		"INSERT INTO comments (post_id, author, body) VALUES (4, 'g', 'h')")
	f.Add(uint8(2), "SELECT title FROM posts WHERE id IN (1, 2)\nSELECT title FROM posts WHERE id IN (3, 4)\n"+
		"SELECT title FROM posts WHERE id IN (5)\nSELECT title FROM posts WHERE id IN (6)")
	f.Fuzz(func(t *testing.T, dialect uint8, seq string) {
		ds := sqltoken.Dialects()
		d := ds[int(dialect)%len(ds)]
		const site = "plugin:fuzz"
		queries := strings.Split(seq, "\n")
		if len(queries) > 24 {
			queries = queries[:24]
		}
		rec := profile.NewRecorderDialect(d)
		for i := 0; i < len(queries); i += 2 {
			rec.Record(site, queries[i])
		}
		store := rec.Store()
		set := fragments.NewSetDialect(d, memoFragments)
		pipeline := func(mode pti.CacheMode) *Engine {
			cached := pti.NewCached(pti.New(set, pti.WithDialect(d)), mode, 4)
			return New(&Snapshot{Dialect: d, PTI: cached, Analyzers: []Analyzer{
				PTIStage{Analyzer: cached}, ProfileStage{Store: store},
			}})
		}
		memoized, plain := pipeline(pti.CacheQueryAndStructure), pipeline(pti.CacheNone)
		ctx := context.Background()
		for pass := 0; pass < 2; pass++ {
			for _, q := range queries {
				req := Request{Query: q, Site: site, Dialect: d}
				got, err1 := memoized.Check(ctx, req)
				want, err2 := plain.Check(ctx, req)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s query %q: errors %v / %v", d, q, err1, err2)
				}
				// A cache hit carries no PTI markings, so the verdicts
				// compare on everything the memo can reach.
				if got.Attack != want.Attack || !reflect.DeepEqual(got.Profile, want.Profile) ||
					got.Skeleton != want.Skeleton || got.ProfileOutcome != want.ProfileOutcome {
					t.Fatalf("%s pass %d query %q:\nmemoized %+v\nplain    %+v", d, pass, q, got, want)
				}
				if sk := profile.SkeletonDialect(d, q); got.Skeleton != sk {
					t.Fatalf("%s query %q: skeleton %q, want %q", d, q, got.Skeleton, sk)
				}
			}
		}

		// Recycled entries: take each query's memo at a fresh entry's
		// first hit, churn the cache until that entry is evicted and
		// reused for another query, then Set. The churned queries' entries
		// must keep empty memos. A full cache admits a query only on its
		// second sighting, so each query is checked twice to get in.
		cached := pti.NewCached(pti.New(set, pti.WithDialect(d)), pti.CacheQueryAndStructure, 4)
		var (
			buf []sqltoken.Token
			res core.Result
		)
		analyze := func(q string, memo *pti.SkeletonMemo) {
			if _, err := cached.AnalyzeBuf(ctx, q, nil, &buf, memo, nil, &res); err != nil {
				t.Fatalf("%s query %q: %v", d, q, err)
			}
		}
		admit := func(q string) {
			analyze(q, nil)
			analyze(q, nil)
		}
		churn := make([]string, 32)
		for j := range churn {
			churn[j] = fmt.Sprintf("SELECT * FROM posts WHERE id=%d LIMIT 5", j)
		}
		for _, q := range queries {
			for _, r := range churn {
				admit(r)
			}
			var memo pti.SkeletonMemo
			admit(q) // a miss puts q afresh, with an empty memo
			analyze(q, &memo)
			for _, r := range churn {
				admit(r)
			}
			memo.Set(profile.SkeletonDialect(d, q))
			for j := len(churn) - 1; j >= 0; j-- {
				var m pti.SkeletonMemo
				if analyze(churn[j], &m); m.Skeleton() != "" {
					t.Fatalf("%s: after a recycled memo of %q was set, %q holds memo %q", d, q, churn[j], m.Skeleton())
				}
			}
		}
	})
}

// TestSkeletonMemoConcurrent fills and reads memos from several checks at
// once, over more queries than the query cache holds, so fills, reads and
// evictions interleave on the same entries. Every check must serve its
// query's skeleton; run it under -race.
func TestSkeletonMemoConcurrent(t *testing.T) {
	const site = "plugin:posts"
	queries := []string{
		"SELECT * FROM posts WHERE id=1 LIMIT 5",
		"SELECT * FROM posts WHERE id='a' LIMIT 5",
		"SELECT title FROM posts WHERE id IN (1, 2)",
		"SELECT title FROM posts WHERE id IN (3)",
		"SELECT * FROM posts WHERE id=2.5 LIMIT 5",
		"SELECT * FROM posts WHERE id=-1 LIMIT 5",
	}
	rec := profile.NewRecorder()
	want := make([]string, len(queries))
	for i, q := range queries[:4] {
		want[i] = rec.Record(site, q)
	}
	for i, q := range queries[4:] {
		want[4+i] = profile.Skeleton(q)
	}
	cached := pti.NewCached(pti.New(fragments.NewSet(memoFragments)), pti.CacheQuery, 4)
	e := New(&Snapshot{PTI: cached, Analyzers: []Analyzer{PTIStage{Analyzer: cached}, ProfileStage{Store: rec.Store()}}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := (g + i*7) % len(queries)
				v, err := e.Check(context.Background(), Request{Query: queries[k], Site: site})
				if err != nil || v.Skeleton != want[k] {
					t.Errorf("query %q: skeleton %q, err %v; want %q", queries[k], v.Skeleton, err, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if cached.Stats().QueryHits == 0 {
		t.Fatal("no check hit the query cache")
	}
}

// TestCacheCountersAgree runs a scripted mix of misses, query hits,
// structure hits, attacks and evictions through a sited pipeline, and
// requires every counter view to agree: the cache's query hits are the
// sum of its query shards' hits; its hits and misses add up to the
// checks the collector recorded; and one check in 16 (the collector's
// sampling stride), starting
// with the first, is timed.
func TestCacheCountersAgree(t *testing.T) {
	const site = "wp:comment-insert"
	rec := profile.NewRecorder()
	cached := pti.NewCached(pti.New(fragments.NewSet(memoFragments)), pti.CacheQueryAndStructure, 8)
	e := New(&Snapshot{PTI: cached, Analyzers: []Analyzer{PTIStage{Analyzer: cached}, ProfileStage{Store: rec.Store()}}})
	var script []string
	for i := 0; i < 40; i++ {
		script = append(script,
			fmt.Sprintf("INSERT INTO comments (post_id, author, body) VALUES (%d, 'a%d', 'b')", i%12, i%12), // structure hits, then query hits
			"SELECT * FROM posts WHERE id=7 LIMIT 5",                                                        // query hits
			fmt.Sprintf("SELECT * FROM posts WHERE id=%d OR 1=1 LIMIT 5", i),                                // attacks: never cached
			"SELECT * FROM posts WHERE id=\x00 LIMIT 5",                                                     // a NUL skips the structure cache
		)
	}
	for _, q := range script {
		if _, err := e.Check(context.Background(), Request{Query: q, Site: site}); err != nil {
			t.Fatal(err)
		}
	}
	st := cached.Stats()
	shards, _ := cached.ShardStats()
	var shardHits, shardMisses uint64
	for _, sh := range shards {
		shardHits += sh.Hits
		shardMisses += sh.Misses
	}
	checks := e.Collector().Snapshot()
	n := uint64(len(script))
	if st.QueryHits != shardHits || shardHits+shardMisses != n {
		t.Fatalf("query hits %d, shard hits %d and misses %d over %d checks", st.QueryHits, shardHits, shardMisses, n)
	}
	if st.QueryHits+st.StructureHits+st.Misses != n || checks.Checks != n {
		t.Fatalf("cache %+v adds up to %d, collector counted %d, script ran %d", st, st.QueryHits+st.StructureHits+st.Misses, checks.Checks, n)
	}
	if st.QueryHits == 0 || st.StructureHits == 0 || st.Misses == 0 {
		t.Fatalf("cache %+v: the mix must hit both caches and miss", st)
	}
	if want := (n + 15) / 16; checks.LatencyCount != want {
		t.Fatalf("%d checks timed of %d, want %d", checks.LatencyCount, n, want)
	}
}
