package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"joza/internal/core"
	"joza/internal/nti"
	"joza/internal/trace"
)

// panicStage always panics; okStage reports a clean result.
func panicStage(name string) Func {
	return Func{StageName: name, Fn: func(context.Context, Request, *State) (core.Result, error) {
		panic("injected fault")
	}}
}

func okStage(name string) Func {
	return Func{StageName: name, Fn: func(context.Context, Request, *State) (core.Result, error) {
		return core.Result{Analyzer: name}, nil
	}}
}

func TestPanicFailClosed(t *testing.T) {
	tr := trace.New(trace.Config{SampleEvery: 1 << 30}) // sampler skips everything
	e := New(&Snapshot{Analyzers: []Analyzer{panicStage(core.AnalyzerPTI), okStage(core.AnalyzerNTI)}},
		WithTracer(tr))
	v, err := e.Check(context.Background(), Request{Query: "SELECT 1"})
	if err != nil {
		t.Fatalf("Check surfaced the panic as an error: %v", err)
	}
	if !v.Attack || !v.PTI.Attack {
		t.Fatalf("fail-closed panic verdict = %+v, want PTI attack", v)
	}
	if len(v.PTI.Reasons) == 0 || !strings.Contains(v.PTI.Reasons[0].Detail, "panicked") {
		t.Fatalf("PTI reasons %v, want a panic reason", v.PTI.Reasons)
	}
	if v.NTI.Attack {
		t.Fatal("the stage after the panicking one did not run or misreported")
	}
	if got := e.Collector().Snapshot().PanicsRecovered; got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}
	// Even though the sampler skipped this check, the panic forced a span
	// into the notable ring, stack included.
	d := tr.Dump()
	if len(d.Notable) != 1 {
		t.Fatalf("notable traces = %d, want 1", len(d.Notable))
	}
	if p := d.Notable[0].Panic; !strings.Contains(p, "injected fault") || !strings.Contains(p, "containment_test.go") {
		t.Fatalf("notable span panic detail missing message or stack:\n%s", p)
	}
}

func TestPanicFailOpen(t *testing.T) {
	e := New(&Snapshot{Analyzers: []Analyzer{panicStage(core.AnalyzerPTI), okStage(core.AnalyzerNTI)}},
		WithFailureMode(FailOpen))
	v, err := e.Check(context.Background(), Request{Query: "SELECT 1"})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if v.Attack {
		t.Fatalf("fail-open panic verdict = %+v, want clean", v)
	}
	if got := e.Collector().Snapshot().PanicsRecovered; got != 1 {
		t.Fatalf("PanicsRecovered = %d, want 1", got)
	}
}

func TestPanicDoesNotPoisonStatePool(t *testing.T) {
	// After a contained panic, subsequent checks run normally — the pooled
	// State must not carry stale data out of the failed check.
	e := New(&Snapshot{Analyzers: []Analyzer{okStage(core.AnalyzerPTI)}})
	bad := New(&Snapshot{Analyzers: []Analyzer{panicStage(core.AnalyzerPTI)}}, WithFailureMode(FailOpen))
	for i := 0; i < 100; i++ {
		if _, err := bad.Check(context.Background(), Request{Query: "x"}); err != nil {
			t.Fatalf("bad engine: %v", err)
		}
		v, err := e.Check(context.Background(), Request{Query: "SELECT 1"})
		if err != nil || v.Attack {
			t.Fatalf("good engine after panic: v=%+v err=%v", v, err)
		}
	}
}

func TestOverBudgetStageFailClosed(t *testing.T) {
	tr := trace.New(trace.Config{SampleEvery: 1 << 30})
	budgetStage := Func{StageName: core.AnalyzerNTI, Fn: func(context.Context, Request, *State) (core.Result, error) {
		return core.Result{}, fmt.Errorf("nti: too much: %w", core.ErrOverBudget)
	}}
	e := New(&Snapshot{Analyzers: []Analyzer{okStage(core.AnalyzerPTI), budgetStage}}, WithTracer(tr))
	v, err := e.Check(context.Background(), Request{Query: "SELECT 1"})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !v.Attack || !v.NTI.Attack {
		t.Fatalf("fail-closed over-budget verdict = %+v, want NTI attack", v)
	}
	snap := e.Collector().Snapshot()
	if snap.OverBudgetChecks != 1 || snap.PanicsRecovered != 0 {
		t.Fatalf("counters = %+v, want 1 over-budget and 0 panics", snap)
	}
	d := tr.Dump()
	if len(d.Notable) != 1 || !strings.Contains(d.Notable[0].OverBudget, "too much") {
		t.Fatalf("notable = %+v, want over-budget span", d.Notable)
	}
}

func TestOverBudgetStageFailOpen(t *testing.T) {
	budgetStage := Func{StageName: core.AnalyzerNTI, Fn: func(context.Context, Request, *State) (core.Result, error) {
		return core.Result{}, fmt.Errorf("nti: too much: %w", core.ErrOverBudget)
	}}
	e := New(&Snapshot{Analyzers: []Analyzer{budgetStage}}, WithFailureMode(FailOpen))
	v, err := e.Check(context.Background(), Request{Query: "SELECT 1"})
	if err != nil || v.Attack {
		t.Fatalf("fail-open over-budget: v=%+v err=%v", v, err)
	}
}

func TestLimitsQueryBytes(t *testing.T) {
	ran := false
	probe := Func{StageName: core.AnalyzerPTI, Fn: func(context.Context, Request, *State) (core.Result, error) {
		ran = true
		return core.Result{Analyzer: core.AnalyzerPTI}, nil
	}}
	e := New(&Snapshot{Analyzers: []Analyzer{probe}, Limits: Limits{MaxQueryBytes: 1 << 20}})
	hostile := "SELECT '" + strings.Repeat("A", 4<<20) + "'" // the 4 MB input
	v, err := e.Check(context.Background(), Request{Query: hostile})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if ran {
		t.Fatal("stage ran despite the query blowing the byte limit")
	}
	if !v.Attack {
		t.Fatalf("fail-closed over-limit verdict = %+v, want attack", v)
	}
	if e.Collector().Snapshot().OverBudgetChecks != 1 {
		t.Fatal("over-limit check not counted as over budget")
	}
	// A normal query still goes through the stage.
	if _, err := e.Check(context.Background(), Request{Query: "SELECT 1"}); err != nil || !ran {
		t.Fatalf("normal check after over-limit: ran=%v err=%v", ran, err)
	}
}

func TestLimitsInputBytes(t *testing.T) {
	e := New(&Snapshot{Analyzers: []Analyzer{okStage(core.AnalyzerPTI)}, Limits: Limits{MaxInputBytes: 1024}},
		WithFailureMode(FailOpen))
	v, err := e.Check(context.Background(), Request{
		Query:  "SELECT 1",
		Inputs: []nti.Input{{Source: "post", Name: "blob", Value: strings.Repeat("x", 4096)}},
	})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if v.Attack {
		t.Fatalf("fail-open over-limit verdict = %+v, want clean", v)
	}
	if e.Collector().Snapshot().OverBudgetChecks != 1 {
		t.Fatal("over-limit inputs not counted as over budget")
	}
}

func TestContextErrorStillPropagates(t *testing.T) {
	stage := Func{StageName: core.AnalyzerPTI, Fn: func(ctx context.Context, _ Request, _ *State) (core.Result, error) {
		return core.Result{}, ctx.Err()
	}}
	e := New(&Snapshot{Analyzers: []Analyzer{stage}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Check(ctx, Request{Query: "SELECT 1"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled — cancellation must not be contained", err)
	}
	if snap := e.Collector().Snapshot(); snap.Checks != 0 {
		t.Fatalf("canceled check recorded a verdict: %+v", snap)
	}
}

func TestPanicContainmentConcurrent(t *testing.T) {
	// Alternate panicking and clean checks from many goroutines under
	// -race: the containment path must be as concurrency-safe as the
	// normal one.
	flaky := Func{StageName: core.AnalyzerPTI, Fn: func(_ context.Context, req Request, _ *State) (core.Result, error) {
		if strings.HasPrefix(req.Query, "boom") {
			panic("concurrent fault")
		}
		return core.Result{Analyzer: core.AnalyzerPTI}, nil
	}}
	e := New(&Snapshot{Analyzers: []Analyzer{flaky}}, WithTracer(trace.New(trace.Config{SampleEvery: 4})))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := "SELECT 1"
				if (g+i)%3 == 0 {
					q = "boom"
				}
				v, err := e.Check(context.Background(), Request{Query: q})
				if err != nil {
					t.Errorf("Check: %v", err)
					return
				}
				if (q == "boom") != v.Attack {
					t.Errorf("query %q: attack=%v", q, v.Attack)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	snap := e.Collector().Snapshot()
	if snap.PanicsRecovered == 0 {
		t.Fatal("no panics recovered")
	}
	if snap.Checks != 8*200 {
		t.Fatalf("Checks = %d, want %d", snap.Checks, 8*200)
	}
}

func TestLongChangedInputResolvesThroughFailureMode(t *testing.T) {
	// An input past NTI's approximate-matching cap that occurs in the
	// query only escaped must not pass unmarked: fail-closed flags it,
	// fail-open serves the other stages' verdict, and both count it.
	value := strings.Repeat("it's a long comment body with plain words in it, padded to a hundred bytes by this filler text ", 50)
	req := Request{
		Query:  "INSERT INTO comments (body) VALUES ('" + strings.ReplaceAll(value, "'", `\'`) + "')",
		Inputs: []nti.Input{{Source: "post", Name: "body", Value: value}},
	}
	for _, mode := range []FailureMode{FailClosed, FailOpen} {
		e := New(&Snapshot{Analyzers: []Analyzer{NTIStage{Analyzer: nti.MustNew()}}}, WithFailureMode(mode))
		v, err := e.Check(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: Check: %v", mode, err)
		}
		if v.Attack != (mode == FailClosed) {
			t.Fatalf("%s: attack = %v", mode, v.Attack)
		}
		if e.Collector().Snapshot().OverBudgetChecks != 1 {
			t.Fatalf("%s: long changed input not counted as over budget", mode)
		}
	}
}
