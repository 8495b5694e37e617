package engine

import (
	"context"
	"errors"
	"reflect"
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
	res := core.Result{Analyzer: core.AnalyzerNTI}
	err := s.Analyze(context.Background(), &Request{
		Query:  "SELECT 1",
		Inputs: []nti.Input{{Source: "get", Name: "id", Value: ""}},
	}, &State{}, &res)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attack || res.Analyzer != core.AnalyzerNTI {
		t.Errorf("res = %+v", res)
	}
}

// writer is a stage that writes a marking and a reason into its slot,
// then fails as fail says: by panicking, or with the error it returns.
type writer struct {
	name string
	fail func() error
}

func (w writer) Name() string { return w.name }

func (w writer) Analyze(ctx context.Context, req *Request, st *State, res *core.Result) error {
	res.Attack = true
	res.Markings = append(res.Markings, core.Marking{Source: "get:x"})
	res.Reasons = append(res.Reasons, core.Reason{Detail: "partial"})
	return w.fail()
}

// TestFailedStageLeavesOnlyTheFailureResult checks that a stage that
// wrote into its slot and then panicked or ran over budget leaves only
// the failure mode's result there: no marking or reason it wrote
// survives, under either mode.
func TestFailedStageLeavesOnlyTheFailureResult(t *testing.T) {
	for _, fc := range []struct {
		name string
		fail func() error
	}{
		{"panic", func() error { panic("injected fault") }},
		{"over budget", func() error { return core.ErrOverBudget }},
	} {
		for _, mode := range []FailureMode{FailClosed, FailOpen} {
			for _, name := range []string{core.AnalyzerNTI, core.AnalyzerPTI, core.AnalyzerProfile} {
				t.Run(fc.name+"/"+mode.String()+"/"+name, func(t *testing.T) {
					e := New(&Snapshot{Analyzers: []Analyzer{writer{name: name, fail: fc.fail}}}, WithFailureMode(mode))
					v, err := e.Check(context.Background(), Request{Query: "SELECT 1"})
					if err != nil {
						t.Fatal(err)
					}
					res := map[string]core.Result{core.AnalyzerNTI: v.NTI, core.AnalyzerPTI: v.PTI, core.AnalyzerProfile: v.Profile}[name]
					if res.Analyzer != name || len(res.Markings) != 0 || !v.Failed {
						t.Fatalf("slot = %+v, failed %v", res, v.Failed)
					}
					wantReasons := 0
					if mode == FailClosed {
						wantReasons = 1
					}
					if res.Attack != (mode == FailClosed) || v.Attack != res.Attack || len(res.Reasons) != wantReasons {
						t.Fatalf("%s slot = %+v, verdict attack %v", mode, res, v.Attack)
					}
					if wantReasons == 1 && res.Reasons[0].Detail == "partial" {
						t.Fatal("the failed stage's own reason survived")
					}
				})
			}
		}
	}
}

// TestContextErrorAfterWriteYieldsZeroVerdict checks that a stage that
// wrote into its slot and then returned a context error yields the zero
// Verdict from Check, leaves CheckInto's destination alone, and records
// nothing.
func TestContextErrorAfterWriteYieldsZeroVerdict(t *testing.T) {
	newEngine := func() (*Engine, context.Context) {
		ctx, cancel := context.WithCancel(context.Background())
		return New(&Snapshot{Analyzers: []Analyzer{writer{name: core.AnalyzerNTI, fail: func() error {
			cancel()
			return ctx.Err()
		}}}}), ctx
	}
	e, ctx := newEngine()
	v, err := e.Check(ctx, Request{Query: "SELECT 1"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(v, core.Verdict{}) {
		t.Fatalf("verdict = %+v, want the zero Verdict", v)
	}
	if n := e.Collector().Snapshot().Checks; n != 0 {
		t.Errorf("canceled check recorded %d checks", n)
	}
	e, ctx = newEngine()
	v = core.Verdict{Query: "kept"}
	if err := e.CheckInto(ctx, Request{Query: "SELECT 1"}, &v); !errors.Is(err, context.Canceled) {
		t.Fatalf("CheckInto err = %v, want context.Canceled", err)
	}
	if !reflect.DeepEqual(v, core.Verdict{Query: "kept"}) {
		t.Fatalf("CheckInto wrote %+v on an error", v)
	}
}

// TestUnknownStageWritesScratch checks that a stage whose name has no
// verdict slot writes a scratch result: its attack counts, nothing it
// wrote reaches a slot, and the next such stage starts from a clean
// result.
func TestUnknownStageWritesScratch(t *testing.T) {
	var seen core.Result
	e := New(&Snapshot{Analyzers: []Analyzer{
		writer{name: "shell", fail: func() error { return nil }},
		Func{StageName: "other", Fn: func(ctx context.Context, req Request, st *State) (core.Result, error) {
			seen = st.scratch
			return core.Result{}, nil
		}},
	}})
	v, err := e.Check(context.Background(), Request{Query: "SELECT 1"})
	if err != nil || !v.Attack || v.NTI.Attack || v.PTI.Attack || v.Profile.Attack {
		t.Fatalf("verdict = %+v, %v", v, err)
	}
	if !reflect.DeepEqual(seen, core.Result{Analyzer: "other"}) {
		t.Fatalf("second unknown stage started from %+v", seen)
	}
}
