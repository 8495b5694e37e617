package engine

import (
	"context"
	"testing"

	"joza/internal/core"
	"joza/internal/profile"
	"joza/internal/sqltoken"
)

// publish returns a stage that publishes toks, standing in for a PTI
// stage whose cache miss lexed the query.
func publish(toks []sqltoken.Token) Func {
	return Func{StageName: core.AnalyzerPTI, Fn: func(ctx context.Context, req Request, st *State) (core.Result, error) {
		st.PublishTokens(toks)
		return core.Result{Analyzer: core.AnalyzerPTI}, nil
	}}
}

// TestProfileStageReusesPublishedTokens pins the one-lex pipeline: once an
// earlier stage published the token stream, a check whose skeleton the
// site has seen allocates nothing — no lex, and a skeleton built in the
// pooled State's buffer and answered with the store's own copy.
func TestProfileStageReusesPublishedTokens(t *testing.T) {
	const site, query = "plugin:posts", "SELECT id FROM posts WHERE id IN (1, 2, 3) AND title = 'x'"
	rec := profile.NewRecorder()
	want := rec.Record(site, query)
	e := New(&Snapshot{Analyzers: []Analyzer{
		publish(sqltoken.MySQL.Lex(query)),
		ProfileStage{Store: rec.Store()},
	}})
	req := Request{Query: query, Site: site}
	ctx := context.Background()
	v, err := e.Check(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if v.Skeleton != want || v.ProfileOutcome != "seen" {
		t.Fatalf("skeleton %q (%s), want %q (seen)", v.Skeleton, v.ProfileOutcome, want)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	if allocs := testing.AllocsPerRun(200, func() { _, _ = e.Check(ctx, req) }); allocs != 0 {
		t.Fatalf("profile stage over published tokens allocates %.1f per check, want 0", allocs)
	}
}

// TestProfileStageLexesUnderItsOwnDialect runs a Postgres-trained profile
// store on a MySQL request. The stage must build the Postgres skeleton and
// must not hand its Postgres tokens to a later stage, whether or not an
// earlier stage published MySQL ones.
func TestProfileStageLexesUnderItsOwnDialect(t *testing.T) {
	const site = "plugin:pg"
	// A dollar-quoted body is one string in Postgres and live tokens in
	// MySQL, so the two dialects disagree on both tokens and skeleton.
	query := "SELECT $$a b$$ FROM t WHERE x = 1"
	want := profile.SkeletonDialect(sqltoken.Postgres, query)
	if want == profile.SkeletonDialect(sqltoken.MySQL, query) {
		t.Fatalf("dialects agree on %q; the test needs a query they split", query)
	}
	rec := profile.NewRecorderDialect(sqltoken.Postgres)
	rec.Record(site, query)
	store := rec.Store()
	mysqlToks := sqltoken.MySQL.Lex(query)

	for _, tc := range []struct {
		name  string
		first []Analyzer
		want  []sqltoken.Token // the stream the later stage must see
	}{
		{"nothing published", nil, nil},
		{"mysql tokens published", []Analyzer{publish(mysqlToks)}, mysqlToks},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var later []sqltoken.Token
			probe := Func{StageName: core.AnalyzerNTI, Fn: func(ctx context.Context, req Request, st *State) (core.Result, error) {
				later = st.Tokens()
				return core.Result{Analyzer: core.AnalyzerNTI}, nil
			}}
			stages := append(append([]Analyzer{}, tc.first...), ProfileStage{Store: store}, probe)
			e := New(&Snapshot{Analyzers: stages, Dialect: sqltoken.MySQL})
			v, err := e.Check(context.Background(), Request{Query: query, Site: site, Dialect: sqltoken.MySQL})
			if err != nil {
				t.Fatal(err)
			}
			if v.Skeleton != want || v.ProfileOutcome != "seen" || v.Attack {
				t.Errorf("skeleton %q (%s, attack %v), want %q (seen)", v.Skeleton, v.ProfileOutcome, v.Attack, want)
			}
			if len(later) != len(tc.want) || (len(later) > 0 && &later[0] != &tc.want[0]) {
				t.Errorf("later stage saw %v, want %v", later, tc.want)
			}
		})
	}
}
