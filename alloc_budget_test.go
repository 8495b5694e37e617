package joza_test

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"joza"
	"joza/internal/workload"
)

// wpCacheCapacity is the PTI cache size of the benchmark suite's
// WordPress guard.
const wpCacheCapacity = 8192

// wpGuard returns a Guard built like the benchmark suite's WordPress
// guard: the generated site's fragments, both PTI caches at
// wpCacheCapacity, and call-site profiles trained on sited.
func wpGuard(t *testing.T, sited map[string]string) *joza.Guard {
	t.Helper()
	site, err := workload.NewSite(1001, 42)
	if err != nil {
		t.Fatal(err)
	}
	rec := joza.NewProfileRecorder()
	for s, q := range sited {
		rec.Record(s, q)
	}
	g, err := joza.New(
		joza.WithFragments(site.Fragments.Fragments()),
		joza.WithCacheMode(joza.CacheQueryAndStructure, wpCacheCapacity),
		joza.WithProfileStore(rec.Store()),
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// commentInsert is the WordPress comment post of comment n, and its
// inputs: the post id, the author and the comment, each of which the
// query holds once. Every n gives a distinct query of one structure.
func commentInsert(n int) (string, []joza.Input) {
	post, author := fmt.Sprint(100+n%900), "tellus"
	// n in base 26 as letters, so the comment holds no digit of the id.
	word := []byte(strconv.FormatInt(int64(n), 26))
	for i, c := range word {
		if c <= '9' {
			word[i] = 'a' + c - '0'
		} else {
			word[i] = 'k' + c - 'a'
		}
	}
	comment := fmt.Sprintf("notes morning ipsum release %s travel lorem integer elit", word)
	q := fmt.Sprintf("INSERT INTO comments (post_id, author, body) VALUES (%s, '%s', '%s')", post, author, comment)
	return q, []joza.Input{
		{Source: "get", Name: "p", Value: post},
		{Source: "post", Name: "author", Value: author},
		{Source: "post", Name: "comment", Value: comment},
	}
}

// TestWarmCheckAllocationBudget pins what a warm benign check allocates
// at the front door: the exact-size NTI markings slice when an input
// matches, and nothing otherwise. NTI keeps a matched input's source and
// name apart instead of rendering a label, and gathers markings on its
// stack; PTI probes the structure cache with a pooled key, and a put into
// a full cache reuses the entry it evicts.
func TestWarmCheckAllocationBudget(t *testing.T) {
	const (
		readSite  = "wp:post"
		writeSite = "wp:comment"
		read      = "SELECT id, title, body FROM posts WHERE id=768"
		runs      = 200
	)
	insert, _ := commentInsert(0)
	g := wpGuard(t, map[string]string{readSite: read, writeSite: insert})
	ctx := context.Background()
	var (
		v   joza.Verdict
		err error
	)
	verify := func(what string, markings int) {
		t.Helper()
		if err != nil || v.Attack || v.ProfileOutcome != "seen" || len(v.NTI.Markings) != markings {
			t.Fatalf("%s: %d NTI markings, outcome %q, attack %v, err %v; want %d markings of a seen benign query",
				what, len(v.NTI.Markings), v.ProfileOutcome, v.Attack, err, markings)
		}
	}
	readReq := joza.Request{Site: readSite, Query: read, Inputs: []joza.Input{{Source: "get", Name: "p", Value: "768"}}}
	unmatchedReq := joza.Request{Site: readSite, Query: read, Inputs: []joza.Input{
		{Source: "get", Name: "p", Value: "859"},
		{Source: "post", Name: "author", Value: "tellus"},
	}}
	// A miss, then the first hit, which fills the entry's skeleton memo.
	for i := 0; i < 2; i++ {
		v, err = g.Check(ctx, readReq)
		verify("read", 1)
	}

	// Fill the query cache with comment posts, every one past the first a
	// structure-cache hit promoted into it, so that each further promotion
	// evicts. Twice the capacity fills every shard. The measured posts
	// come after them: each is new, so each hits the structure cache.
	posts := make([]joza.Request, 2*wpCacheCapacity+runs+1)
	for i := range posts {
		q, in := commentInsert(i)
		posts[i] = joza.Request{Site: writeSite, Query: q, Inputs: in}
	}
	for _, req := range posts[:2*wpCacheCapacity] {
		v, err = g.Check(ctx, req)
		verify(req.Query, 3)
	}
	measured := posts[2*wpCacheCapacity:]
	v, err = g.Check(ctx, readReq) // back into the query cache
	verify("read", 1)
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}

	hitsBefore := g.Metrics().CacheStructureHits
	for _, tc := range []struct {
		name     string
		req      func(i int) joza.Request
		markings int
		want     float64
	}{
		{"sited query-cache hit, one matched numeric input", func(int) joza.Request { return readReq }, 1, 1},
		{"comment INSERT hitting the structure cache, three matched inputs", func(i int) joza.Request { return measured[i] }, 3, 1},
		{"inputs matching nothing", func(int) joza.Request { return unmatchedReq }, 0, 0},
	} {
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			v, err = g.Check(ctx, tc.req(i))
			i++
		})
		verify(tc.name, tc.markings)
		if got != tc.want {
			t.Errorf("%s: a warm check allocates %.2f times, want %.0f", tc.name, got, tc.want)
		}
	}
	if hits := g.Metrics().CacheStructureHits - hitsBefore; hits != runs+1 {
		t.Errorf("%d structure-cache hits while measuring, want one per measured comment post (%d)", hits, runs+1)
	}
}
