package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"joza/internal/core"
	"joza/internal/fragments"
	"joza/internal/nti"
	"joza/internal/profile"
	"joza/internal/pti"
	"joza/internal/sqltoken"
)

// pooledStates runs check, then takes States from the pool, hands each to
// see and puts them back. A pool hands the State a check released to the
// same goroutine's next Get unless the goroutine moved to another P in
// between, so the round repeats until see reports the State it wanted.
func pooledStates(t *testing.T, check func(), see func(st *State) bool) {
	t.Helper()
	for i := 0; i < 50; i++ {
		check()
		st := statePool.Get().(*State)
		found := see(st)
		statePool.Put(st)
		if found {
			return
		}
	}
	t.Fatal("no pooled State came back from the check")
}

// TestPooledStateHoldsNoQueryText checks every stage that lexes into the
// State's token storage: a PTI cache miss, the profile stage and NTI's
// lazy lex. The State the check releases keeps the storage but no token
// text, and holds no request, verdict or scratch result, so a pooled
// State pins no query.
func TestPooledStateHoldsNoQueryText(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const query = "SELECT id, title FROM posts WHERE id = 42 AND title = 'secret' LIMIT 5"
	set := fragments.NewSet([]string{"SELECT id, title FROM posts WHERE id = ", " AND title = ", " LIMIT 5"})
	// A digits-only match needs no lex, so the input matches the literal.
	inputs := []nti.Input{{Source: "get", Name: "title", Value: "secret"}}
	lexed := len(sqltoken.MySQL.Lex(query))
	for _, tc := range []struct {
		name   string
		stage  Analyzer
		site   string
		inputs []nti.Input
	}{
		{"pti miss", PTIStage{Analyzer: pti.NewCached(pti.New(set), pti.CacheNone, 0)}, "", nil},
		{"profile", ProfileStage{Recorder: profile.NewRecorder()}, "plugin:posts", nil},
		{"nti lazy lex", NTIStage{Analyzer: nti.MustNew()}, "", inputs},
		{"unknown stage", Func{StageName: "shell", Fn: func(ctx context.Context, req Request, st *State) (core.Result, error) {
			st.tokBuf = sqltoken.MySQL.AppendLex(st.tokBuf[:0], req.Query)
			return core.Result{Analyzer: "shell", Reasons: []core.Reason{{Detail: req.Query}}}, nil
		}}, "", inputs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(&Snapshot{Analyzers: []Analyzer{tc.stage}})
			req := Request{Query: query, Site: tc.site, Inputs: tc.inputs}
			check := func() {
				if _, err := e.Check(context.Background(), req); err != nil {
					t.Fatal(err)
				}
			}
			pooledStates(t, check, func(st *State) bool {
				if !reflect.DeepEqual(st.req, Request{}) || !reflect.DeepEqual(st.v, core.Verdict{}) || !reflect.DeepEqual(st.scratch, core.Result{}) {
					t.Fatalf("pooled State holds request %+v, verdict %+v, scratch %+v", st.req, st.v, st.scratch)
				}
				if len(st.tokBuf) != 0 || st.tokens != nil {
					t.Fatalf("pooled State holds %d tokens, published %d", len(st.tokBuf), len(st.tokens))
				}
				storage := st.tokBuf[:cap(st.tokBuf)]
				for i, tok := range storage {
					if tok.Text != "" {
						t.Fatalf("pooled token storage %d holds %q", i, tok.Text)
					}
				}
				return len(storage) >= lexed
			})
		})
	}
}

// TestPooledStateHoldsNoMemo checks that a State released by a check
// that took a skeleton memo on a query-cache hit keeps no handle on the
// cache entry.
func TestPooledStateHoldsNoMemo(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const site, query = "plugin:posts", "SELECT * FROM posts WHERE id=7 LIMIT 5"
	rec := profile.NewRecorder()
	rec.Record(site, query)
	cached := pti.NewCached(pti.New(fragments.NewSet(memoFragments)), pti.CacheQuery, 16)
	e := New(&Snapshot{PTI: cached, Analyzers: []Analyzer{PTIStage{Analyzer: cached}, ProfileStage{Store: rec.Store()}}})
	check := func() {
		if v, err := e.Check(context.Background(), Request{Query: query, Site: site}); err != nil || v.ProfileOutcome != "seen" {
			t.Fatalf("check: %+v, %v", v, err)
		}
	}
	check() // the miss; later checks hit and take the memo
	pooledStates(t, check, func(st *State) bool {
		if st.memo != (pti.SkeletonMemo{}) {
			t.Fatal("pooled State holds a skeleton memo")
		}
		return cap(st.tokBuf) > 0
	})
}

// TestOversizedTokenStorageIsNotPooled lexes a query past the pooled cap:
// its storage is dropped on release instead of pinned in the pool.
func TestOversizedTokenStorageIsNotPooled(t *testing.T) {
	query := "SELECT 1" + strings.Repeat(", 1", maxPooledTokens)
	if n := len(sqltoken.MySQL.Lex(query)); n <= maxPooledTokens {
		t.Fatalf("query lexes to %d tokens, want more than %d", n, maxPooledTokens)
	}
	st := &State{tokBuf: sqltoken.MySQL.AppendLex(nil, query)}
	st.reset()
	if st.tokBuf != nil {
		t.Fatalf("reset kept %d-token storage, cap is %d", cap(st.tokBuf), maxPooledTokens)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	rec := profile.NewRecorder()
	e := New(&Snapshot{Analyzers: []Analyzer{ProfileStage{Recorder: rec}}})
	req := Request{Query: query, Site: "plugin:big"}
	check := func() {
		if _, err := e.Check(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	pooledStates(t, check, func(st *State) bool {
		if cap(st.tokBuf) > maxPooledTokens {
			t.Fatalf("pooled State kept %d-token storage, cap is %d", cap(st.tokBuf), maxPooledTokens)
		}
		// The skeleton buffer proves this State served the check.
		return len(st.skeletonBuf) == 0 && cap(st.skeletonBuf) > 0
	})
}
