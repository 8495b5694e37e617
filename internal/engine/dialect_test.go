package engine

import (
	"context"
	"strings"
	"testing"

	"joza/internal/core"
	"joza/internal/fragments"
	"joza/internal/nti"
	"joza/internal/pti"
	"joza/internal/sqltoken"
)

// TestCheckRefusesDialectMismatch pins the engine-level backstop: a
// request carrying a dialect other than the snapshot's never reaches any
// stage, resolving through the failure mode instead.
func TestCheckRefusesDialectMismatch(t *testing.T) {
	ran := false
	probe := Func{StageName: core.AnalyzerPTI, Fn: func(ctx context.Context, req Request, st *State) (core.Result, error) {
		ran = true
		return core.Result{Analyzer: core.AnalyzerPTI}, nil
	}}

	t.Run("fail-closed", func(t *testing.T) {
		e := New(&Snapshot{Analyzers: []Analyzer{probe}, Dialect: sqltoken.MySQL})
		v, err := e.Check(context.Background(), Request{Query: "SELECT 1", Dialect: sqltoken.Postgres})
		if err != nil {
			t.Fatal(err)
		}
		if ran {
			t.Error("stage ran despite dialect mismatch")
		}
		if !v.Attack {
			t.Error("fail-closed mismatch must synthesize an attack verdict")
		}
		if len(v.PTI.Reasons) == 0 || !strings.Contains(v.PTI.Reasons[0].Detail, "dialect") {
			t.Errorf("reason should name the mismatch, got %+v", v.PTI.Reasons)
		}
	})

	t.Run("fail-open", func(t *testing.T) {
		ran = false
		e := New(&Snapshot{Analyzers: []Analyzer{probe}, Dialect: sqltoken.MySQL}, WithFailureMode(FailOpen))
		v, err := e.Check(context.Background(), Request{Query: "SELECT 1", Dialect: sqltoken.Postgres})
		if err != nil {
			t.Fatal(err)
		}
		if ran {
			t.Error("stage ran despite dialect mismatch")
		}
		if v.Attack {
			t.Error("fail-open mismatch must not flag")
		}
	})
}

// TestCheckMatchingDialectRuns pins that matched (and default zero-value)
// dialects analyze normally.
func TestCheckMatchingDialectRuns(t *testing.T) {
	for _, d := range sqltoken.Dialects() {
		ran := false
		probe := Func{StageName: core.AnalyzerPTI, Fn: func(ctx context.Context, req Request, st *State) (core.Result, error) {
			ran = true
			return core.Result{Analyzer: core.AnalyzerPTI}, nil
		}}
		e := New(&Snapshot{Analyzers: []Analyzer{probe}, Dialect: d})
		if _, err := e.Check(context.Background(), Request{Query: "SELECT 1", Dialect: d}); err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Errorf("dialect %v: stage did not run", d)
		}
	}
	// Zero values on both sides mean MySQL and must keep working untouched.
	ran := false
	e := New(&Snapshot{Analyzers: []Analyzer{Func{StageName: core.AnalyzerPTI, Fn: func(ctx context.Context, req Request, st *State) (core.Result, error) {
		ran = true
		return core.Result{Analyzer: core.AnalyzerPTI}, nil
	}}}})
	if _, err := e.Check(context.Background(), Request{Query: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("zero-dialect request refused by zero-dialect snapshot")
	}
}

// TestMismatchCountsOverBudget pins that refused mismatches are visible in
// the collector rather than silent.
func TestMismatchCountsOverBudget(t *testing.T) {
	e := New(&Snapshot{Dialect: sqltoken.MySQL})
	if _, err := e.Check(context.Background(), Request{Query: "x", Dialect: sqltoken.SQLite}); err != nil {
		t.Fatal(err)
	}
	if got := e.Collector().Snapshot().OverBudgetChecks; got != 1 {
		t.Errorf("OverBudgetChecks = %d, want 1", got)
	}
}

// TestCheckRefusesAnalyzerDialectMismatch pins that a snapshot whose NTI
// or PTI handle lexes under another dialect than the snapshot's refuses
// every check instead of analyzing with the wrong token boundaries: each
// analyzer lexes queries itself, so the mismatch would otherwise change
// its verdicts silently.
func TestCheckRefusesAnalyzerDialectMismatch(t *testing.T) {
	set := fragments.NewSet([]string{"SELECT 1"})
	snaps := map[string]*Snapshot{
		"nti": {NTI: nti.MustNew(nti.WithDialect(sqltoken.Postgres))},
		"pti": {PTI: pti.NewCached(pti.New(set, pti.WithDialect(sqltoken.SQLite)), pti.CacheNone, 0)},
	}
	for name, snap := range snaps {
		ran := false
		snap.Analyzers = []Analyzer{Func{StageName: core.AnalyzerPTI, Fn: func(ctx context.Context, req Request, st *State) (core.Result, error) {
			ran = true
			return core.Result{Analyzer: core.AnalyzerPTI}, nil
		}}}
		v, err := New(snap).Check(context.Background(), Request{Query: "SELECT 1"})
		if err != nil {
			t.Fatal(err)
		}
		if ran {
			t.Errorf("%s: stage ran under a mismatched analyzer", name)
		}
		if !v.Attack || len(v.PTI.Reasons) == 0 || !strings.Contains(v.PTI.Reasons[0].Detail, strings.ToUpper(name)+" analyzer dialect") {
			t.Errorf("%s: verdict = %+v, want a fail-closed refusal naming the analyzer", name, v)
		}
	}
}
