package engine

import (
	"context"
	"errors"
	"testing"

	"joza/internal/core"
	"joza/internal/nti"
	"joza/internal/sqltoken"
)

// stage builds a Func stage returning a fixed result.
func stage(name string, attack bool) Func {
	return Func{
		StageName: name,
		Fn: func(ctx context.Context, req Request, st *State) (core.Result, error) {
			return core.Result{Analyzer: name, Attack: attack}, nil
		},
	}
}

func TestCheckFoldsStageVerdicts(t *testing.T) {
	cases := []struct {
		name    string
		ptiHit  bool
		ntiHit  bool
		wantAtk bool
	}{
		{"both benign", false, false, false},
		{"pti flags", true, false, true},
		{"nti flags", false, true, true},
		{"both flag", true, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(&Snapshot{Analyzers: []Analyzer{
				stage(core.AnalyzerPTI, tc.ptiHit),
				stage(core.AnalyzerNTI, tc.ntiHit),
			}})
			v, err := e.Check(context.Background(), Request{Query: "SELECT 1"})
			if err != nil {
				t.Fatal(err)
			}
			if v.Attack != tc.wantAtk {
				t.Errorf("Attack = %v, want %v", v.Attack, tc.wantAtk)
			}
			if v.PTI.Attack != tc.ptiHit || v.NTI.Attack != tc.ntiHit {
				t.Errorf("slots = PTI %v NTI %v", v.PTI.Attack, v.NTI.Attack)
			}
		})
	}
}

func TestCheckLabelsEmptySlots(t *testing.T) {
	// A pipeline with no NTI stage still reports a labeled empty NTI result.
	e := New(&Snapshot{Analyzers: []Analyzer{stage(core.AnalyzerPTI, false)}})
	v, err := e.Check(context.Background(), Request{Query: "SELECT 1"})
	if err != nil {
		t.Fatal(err)
	}
	if v.NTI.Analyzer != core.AnalyzerNTI || v.PTI.Analyzer != core.AnalyzerPTI {
		t.Errorf("labels = %q, %q", v.NTI.Analyzer, v.PTI.Analyzer)
	}
}

func TestCheckUnknownStageNameFeedsAttackOnly(t *testing.T) {
	e := New(&Snapshot{Analyzers: []Analyzer{stage("shell", true)}})
	v, err := e.Check(context.Background(), Request{Query: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Attack {
		t.Error("unknown stage's attack verdict must count")
	}
	if v.NTI.Attack || v.PTI.Attack {
		t.Error("unknown stage must not occupy a slot")
	}
}

func TestCheckPreCanceledContext(t *testing.T) {
	ran := false
	e := New(&Snapshot{Analyzers: []Analyzer{Func{
		StageName: core.AnalyzerPTI,
		Fn: func(ctx context.Context, req Request, st *State) (core.Result, error) {
			ran = true
			return core.Result{}, nil
		},
	}}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Check(ctx, Request{Query: "SELECT 1"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("no stage should run under a pre-canceled context")
	}
	if n := e.Collector().Snapshot().Checks; n != 0 {
		t.Errorf("canceled check recorded %d checks", n)
	}
}

func TestCheckStageErrorRecordsNothing(t *testing.T) {
	boom := errors.New("boom")
	e := New(&Snapshot{Analyzers: []Analyzer{Func{
		StageName: core.AnalyzerPTI,
		Fn: func(ctx context.Context, req Request, st *State) (core.Result, error) {
			return core.Result{}, boom
		},
	}}})
	if _, err := e.Check(context.Background(), Request{Query: "x"}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := e.Collector().Snapshot().Checks; n != 0 {
		t.Errorf("failed check recorded %d checks", n)
	}
}

func TestCheckRecordsMetricsAndDegraded(t *testing.T) {
	e := New(&Snapshot{Analyzers: []Analyzer{Func{
		StageName: core.AnalyzerPTI,
		Fn: func(ctx context.Context, req Request, st *State) (core.Result, error) {
			st.MarkDegraded()
			return core.Result{Analyzer: core.AnalyzerPTI, Attack: true}, nil
		},
	}}})
	if _, err := e.Check(context.Background(), Request{Query: "x"}); err != nil {
		t.Fatal(err)
	}
	snap := e.Collector().Snapshot()
	if snap.Checks != 1 || snap.PTIAttacks != 1 || snap.DegradedChecks != 1 {
		t.Errorf("snapshot = checks %d pti %d degraded %d",
			snap.Checks, snap.PTIAttacks, snap.DegradedChecks)
	}
}

func TestSwapChangesNextCheck(t *testing.T) {
	e := New(&Snapshot{Analyzers: []Analyzer{stage(core.AnalyzerPTI, true)}})
	v, _ := e.Check(context.Background(), Request{Query: "x"})
	if !v.Attack {
		t.Fatal("old snapshot should flag")
	}
	e.Swap(&Snapshot{Analyzers: []Analyzer{stage(core.AnalyzerPTI, false)}})
	v, _ = e.Check(context.Background(), Request{Query: "x"})
	if v.Attack {
		t.Error("new snapshot should not flag")
	}
}

func TestStateTokenSharing(t *testing.T) {
	toks := []sqltoken.Token{{Kind: sqltoken.KindNumber, Text: "1"}}
	var got []sqltoken.Token
	e := New(&Snapshot{Analyzers: []Analyzer{
		Func{StageName: core.AnalyzerPTI, Fn: func(ctx context.Context, req Request, st *State) (core.Result, error) {
			st.PublishTokens(toks)
			return core.Result{}, nil
		}},
		Func{StageName: core.AnalyzerNTI, Fn: func(ctx context.Context, req Request, st *State) (core.Result, error) {
			got = st.Tokens()
			return core.Result{}, nil
		}},
	}})
	if _, err := e.Check(context.Background(), Request{Query: "1"}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Text != "1" {
		t.Errorf("shared tokens = %v", got)
	}
}

func TestAuthorizeReturnsAttackError(t *testing.T) {
	e := New(&Snapshot{Analyzers: []Analyzer{stage(core.AnalyzerPTI, true)}})
	err := e.Authorize(context.Background(), Request{Query: "x"})
	var ae *core.AttackError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v (%T), want *core.AttackError", err, err)
	}
	e.Swap(&Snapshot{Analyzers: []Analyzer{stage(core.AnalyzerPTI, false)}})
	if err := e.Authorize(context.Background(), Request{Query: "x"}); err != nil {
		t.Fatalf("benign authorize err = %v", err)
	}
}

func TestNTIStageSkipsWithoutInputValues(t *testing.T) {
	// The NTI stage must not touch the analyzer when every input is empty;
	// a nil analyzer would panic if it did.
	s := NTIStage{Analyzer: nil}
	res, err := s.Analyze(context.Background(), Request{
		Query:  "SELECT 1",
		Inputs: []nti.Input{{Source: "get", Name: "id", Value: ""}},
	}, &State{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attack || res.Analyzer != core.AnalyzerNTI {
		t.Errorf("res = %+v", res)
	}
}
