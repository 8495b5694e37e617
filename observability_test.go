package joza_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"joza"
)

// TestDisabledTracingZeroAllocs is the acceptance check for the trace
// layer's off switch: with tracing disabled, the cache-hot Check path must
// stay allocation-free, so the instrumentation's recording sites cost
// nothing when no span is live. Both flavours of "disabled" are covered —
// no observability configured at all (nil tracer via option absence) and
// observability configured with tracing off (nil tracer via negative
// sample rate). NTI runs too: the input carries no value, which is the
// alloc-free steady state the seed already had.
func TestDisabledTracingZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []joza.Option
	}{
		{"no-observability", nil},
		{"tracing-off", []joza.Option{joza.WithObservability(joza.ObservabilityConfig{TraceSampleEvery: -1})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGuard(t, tc.opts...)
			query := "SELECT * FROM records WHERE ID=5 LIMIT 5"
			inputs := []joza.Input{{Source: "get", Name: "id", Value: ""}}
			req := joza.Request{Query: query, Inputs: inputs}
			ctx := context.Background()
			g.Check(ctx, req) // warm the PTI cache
			allocs := testing.AllocsPerRun(200, func() {
				g.Check(ctx, req)
			})
			if allocs != 0 {
				t.Fatalf("Check with tracing disabled allocates %.1f per op, want 0", allocs)
			}
		})
	}
}

// TestSitedCheckAllocatesOnlyTokens extends the zero-alloc check to a
// sited check: warm, a PTI query-cache hit, and a skeleton the site's
// profile has seen. The profile stage lexes into the pooled check state's
// token storage, builds the skeleton in its buffer and takes the store's
// own copy for the verdict, so the check allocates nothing. As in the test
// above, the input carries no value, so NTI has nothing to match.
func TestSitedCheckAllocatesOnlyTokens(t *testing.T) {
	const site = "plugin:records"
	query := "SELECT * FROM records WHERE ID=5 LIMIT 5"
	rec := joza.NewProfileRecorder()
	rec.Record(site, query)
	g := newGuard(t, joza.WithProfileStore(rec.Store()))
	inputs := []joza.Input{{Source: "get", Name: "id", Value: ""}}
	ctx := context.Background()
	if v, err := g.CheckContextAt(ctx, site, query, inputs); err != nil || v.Attack || v.ProfileOutcome != "seen" {
		t.Fatalf("warm-up check: %+v, %v", v, err)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	allocs := testing.AllocsPerRun(200, func() {
		g.CheckContextAt(ctx, site, query, inputs)
	})
	if allocs != 0 {
		t.Fatalf("sited query-cache-hit check allocates %.1f per op, want 0", allocs)
	}
	req := joza.Request{Site: site, Query: query, Inputs: inputs}
	allocs = testing.AllocsPerRun(200, func() {
		g.Check(ctx, req)
	})
	if allocs != 0 {
		t.Fatalf("sited query-cache-hit Check(Request) allocates %.1f per op, want 0", allocs)
	}
}

func TestGuardTracesDisabled(t *testing.T) {
	g := newGuard(t)
	check(g, "SELECT * FROM records WHERE ID=5 LIMIT 5", nil)
	d := g.Traces()
	if d.Started != 0 || len(d.Recent) != 0 || len(d.Notable) != 0 {
		t.Fatalf("guard without observability recorded traces: %+v", d)
	}
	if g.ObservabilityAddr() != "" {
		t.Fatal("no listener was requested")
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGuardTracingRecordsEvidence(t *testing.T) {
	g := newGuard(t, joza.WithObservability(joza.ObservabilityConfig{
		TraceSampleEvery: 1,
		TraceRingSize:    8,
	}))
	benign := "SELECT * FROM records WHERE ID=5 LIMIT 5"
	attack := "SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5"
	check(g, benign, []joza.Input{{Source: "get", Name: "id", Value: "5"}})
	v := check(g, attack, []joza.Input{{Source: "get", Name: "id", Value: "-1 UNION SELECT username()"}})
	if !v.Attack {
		t.Fatal("attack not flagged")
	}
	d := g.Traces()
	if d.Started != 2 || d.Finished != 2 {
		t.Fatalf("started/finished = %d/%d, want 2/2", d.Started, d.Finished)
	}
	if len(d.Recent) != 2 {
		t.Fatalf("recent holds %d spans, want 2", len(d.Recent))
	}
	if len(d.Notable) != 1 || !d.Notable[0].Attack {
		t.Fatalf("notable = %+v, want the one attack", d.Notable)
	}
	at := d.Notable[0]
	if at.Query != attack {
		t.Fatalf("notable query = %q", at.Query)
	}
	if at.TotalNs <= 0 || at.PTICoverNs <= 0 {
		t.Fatalf("span durations not recorded: %+v", at)
	}
	if len(at.UncoveredTokens) == 0 {
		t.Fatal("attack trace carries no uncovered-token evidence")
	}
	if len(at.Inputs) == 0 || !at.Inputs[0].Matched {
		t.Fatalf("attack trace carries no input-match evidence: %+v", at.Inputs)
	}
	// Traced checks feed the stage histograms.
	m := g.Metrics()
	if len(m.Stages) == 0 {
		t.Fatal("traced checks did not populate stage histograms")
	}
}

func TestGuardTraceSampling(t *testing.T) {
	g := newGuard(t, joza.WithObservability(joza.ObservabilityConfig{
		TraceSampleEvery: 4,
	}))
	for i := 0; i < 8; i++ {
		check(g, "SELECT * FROM records WHERE ID=5 LIMIT 5", nil)
	}
	d := g.Traces()
	if d.Started != 2 {
		t.Fatalf("1-in-4 sampling traced %d of 8 checks, want 2", d.Started)
	}
}

func TestGuardTracingOffWithListener(t *testing.T) {
	g := newGuard(t, joza.WithObservability(joza.ObservabilityConfig{
		Addr:             "127.0.0.1:0",
		TraceSampleEvery: -1,
	}))
	defer g.Close()
	check(g, "SELECT * FROM records WHERE ID=5 LIMIT 5", nil)
	if d := g.Traces(); len(d.Recent) != 0 {
		t.Fatal("negative TraceSampleEvery must disable tracing")
	}
	if g.ObservabilityAddr() == "" {
		t.Fatal("listener must still run with tracing off")
	}
}

// TestGuardObservabilityEndpoints is the end-to-end check of the embedded
// observability server: live /metrics with counters and stage histograms,
// /healthz, /debug/pprof/ and /traces backed by real Guard activity.
func TestGuardObservabilityEndpoints(t *testing.T) {
	g := newGuard(t, joza.WithObservability(joza.ObservabilityConfig{
		Addr: "127.0.0.1:0",
	}))
	defer g.Close()
	base := "http://" + g.ObservabilityAddr()
	check(g, "SELECT * FROM records WHERE ID=5 LIMIT 5", []joza.Input{{Source: "get", Name: "id", Value: "5"}})
	check(g, "SELECT * FROM records WHERE ID=-1 OR 1=1 LIMIT 5", []joza.Input{{Source: "get", Name: "id", Value: "-1 OR 1=1"}})

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"joza_checks_total 2",
		"joza_attacks_total 1",
		"# TYPE joza_stage_duration_seconds histogram",
		`joza_stage_duration_seconds_bucket{stage="pti_cover"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}

	code, body = get("/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces status %d", code)
	}
	var dump joza.TraceDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/traces not JSON: %v", err)
	}
	if len(dump.Recent) != 2 || len(dump.Notable) != 1 {
		t.Fatalf("/traces = %d recent, %d notable; want 2/1", len(dump.Recent), len(dump.Notable))
	}
}
