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

// memoFragments covers the test queries, so PTI caches them as safe.
var memoFragments = []string{"SELECT * FROM posts WHERE id=", " LIMIT 5", "SELECT title FROM posts WHERE id IN ("}

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

// FuzzSkeletonMemo runs newline-separated query sequences, twice, through
// a sited pipeline with both PTI caches (the Guard's default), four
// entries each, so structure hits occur and evictions fall between a
// memo's fill and its reads. Every verdict's attack bit and
// profile evidence must equal those of a pipeline without a query cache
// (and so without memos), and every served skeleton must be
// profile.SkeletonDialect of its query. The store is trained on the
// sequence's even lines, so seen and unseen skeletons both occur.
func FuzzSkeletonMemo(f *testing.F) {
	f.Add(uint8(0), "SELECT * FROM posts WHERE id=7 LIMIT 5\nSELECT * FROM posts WHERE id=8 LIMIT 5\nSELECT * FROM posts WHERE id=7 LIMIT 5")
	f.Add(uint8(0), "SELECT title FROM posts WHERE id IN (1, 2)\nSELECT title FROM posts WHERE id IN (1, 2, 3)\nSELECT * FROM posts WHERE id=1 OR 1=1 LIMIT 5")
	f.Add(uint8(1), "SELECT * FROM posts WHERE id=$$x$$ LIMIT 5\nSELECT * FROM posts WHERE id='a' LIMIT 5")
	f.Add(uint8(2), "SELECT * FROM posts WHERE id=\"x\" LIMIT 5\n\nSELECT * FROM posts WHERE id=1 LIMIT 5")
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
		// must keep empty memos.
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
		churn := make([]string, 32)
		for j := range churn {
			churn[j] = fmt.Sprintf("SELECT * FROM posts WHERE id=%d LIMIT 5", j)
		}
		for _, q := range queries {
			for _, r := range churn {
				analyze(r, nil)
			}
			var memo pti.SkeletonMemo
			analyze(q, nil) // a miss puts q afresh, with an empty memo
			analyze(q, &memo)
			for _, r := range churn {
				analyze(r, nil)
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
