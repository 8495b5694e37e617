package daemon

import (
	"context"
	"errors"
	"joza/internal/engine"
	"net"
	"strings"
	"testing"

	"joza/internal/nti"
	"joza/internal/trace"
)

// startTracedTCPServer is startTCPServer with a sample-everything tracer.
func startTracedTCPServer(t *testing.T) (addr string, srv *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tracer := trace.New(trace.Config{SampleEvery: 1, RingSize: 16})
	srv = NewServer(newAnalyzer(), WithTracer(tracer))
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String(), srv
}

func TestTracesVerb(t *testing.T) {
	addr, _ := startTracedTCPServer(t)
	c := DialPool(addr, PoolConfig{Size: 1})
	defer c.Close()
	if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AnalyzeSiteContext(context.Background(), "", attackQuery); err != nil {
		t.Fatal(err)
	}
	d, err := c.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if d.Started != 2 || len(d.Recent) != 2 {
		t.Fatalf("traces = started %d, %d recent; want 2/2", d.Started, len(d.Recent))
	}
	if len(d.Notable) != 1 || !d.Notable[0].Attack {
		t.Fatalf("notable = %+v, want the attack", d.Notable)
	}
	if d.Notable[0].Query != attackQuery {
		t.Fatalf("notable query = %q", d.Notable[0].Query)
	}
	if len(d.Notable[0].UncoveredTokens) == 0 {
		t.Fatal("attack trace crossed the wire without uncovered-token evidence")
	}
}

func TestTracesVerbWithoutTracer(t *testing.T) {
	addr := startTCPServer(t, newAnalyzer())
	c := DialPool(addr, PoolConfig{Size: 1})
	defer c.Close()
	d, err := c.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Recent) != 0 || len(d.Notable) != 0 {
		t.Fatal("untraced daemon must serve an empty dump")
	}
}

func TestAnalyzeReplyCarriesTrace(t *testing.T) {
	addr, _ := startTracedTCPServer(t)
	c := DialPool(addr, PoolConfig{Size: 1})
	defer c.Close()
	reply, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Trace == nil {
		t.Fatal("sample-everything daemon attached no trace to the reply")
	}
	if reply.Trace.LexNs <= 0 || reply.Trace.CacheOutcome != trace.CacheMiss {
		t.Fatalf("daemon trace = %+v", reply.Trace)
	}

	// Repeat: the daemon's query cache hits, and the trace says so.
	reply, err = c.AnalyzeSiteContext(context.Background(), "", benignQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Trace.CacheOutcome != trace.CacheQueryHit {
		t.Fatalf("repeat outcome %q, want query-hit", reply.Trace.CacheOutcome)
	}
}

func TestUntracedServerOmitsReplyTrace(t *testing.T) {
	addr := startTCPServer(t, newAnalyzer())
	c := DialPool(addr, PoolConfig{Size: 1})
	defer c.Close()
	reply, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Trace != nil {
		t.Fatal("untraced daemon attached a trace")
	}
}

// TestHybridClientMergesDaemonTrace runs the full remote deployment with
// tracing on both sides and checks that one client span carries NTI
// timing from this process and lex/cache/cover evidence from the daemon.
func TestHybridClientMergesDaemonTrace(t *testing.T) {
	addr, _ := startTracedTCPServer(t)
	c := DialPool(addr, PoolConfig{Size: 1})
	h := NewHybridClient(c, nti.MustNew(), 0,
		WithTracing(trace.Config{SampleEvery: 1, RingSize: 8}))
	defer h.Close()

	inputs := []nti.Input{{Source: "get", Name: "id", Value: "-1 UNION SELECT username()"}}
	v, err := h.Check(context.Background(), engine.Request{Query: attackQuery, Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Attack {
		t.Fatal("attack not flagged")
	}
	d := h.Traces()
	if len(d.Notable) != 1 {
		t.Fatalf("notable = %d, want 1", len(d.Notable))
	}
	sp := d.Notable[0]
	if sp.LexNs <= 0 || sp.PTICoverNs <= 0 {
		t.Fatalf("daemon-side stage timings not merged: %+v", sp)
	}
	if sp.CacheOutcome != trace.CacheMiss {
		t.Fatalf("cache outcome %q not merged", sp.CacheOutcome)
	}
	if len(sp.UncoveredTokens) == 0 {
		t.Fatal("daemon cover evidence not merged")
	}
	if len(sp.Inputs) == 0 || !sp.Inputs[0].Matched || sp.NTIMatchNs <= 0 {
		t.Fatalf("client-side NTI evidence missing: %+v", sp.Inputs)
	}
	if !sp.NTIAttack || !sp.PTIAttack {
		t.Fatalf("verdict attribution = NTI %v PTI %v", sp.NTIAttack, sp.PTIAttack)
	}
	// Traced checks feed the client's stage histograms.
	if len(h.Metrics().Stages) == 0 {
		t.Fatal("traced check did not populate stage histograms")
	}
}

// TestHybridClientTraceDegraded checks that an outage under fail-open is
// visible in the trace and lands in the notable ring.
func TestHybridClientTraceDegraded(t *testing.T) {
	down := NewPool(func() (net.Conn, error) { return nil, errors.New("daemon down") }, PoolConfig{Size: 1, MaxAttempts: 1})
	h := NewHybridClient(down, nti.MustNew(), 0,
		WithDegradeMode(DegradeFailOpen),
		WithTracing(trace.Config{SampleEvery: 1, RingSize: 8}))
	v, err := h.Check(context.Background(), engine.Request{Query: benignQuery})
	if err != nil {
		t.Fatal(err)
	}
	if v.Attack {
		t.Fatal("fail-open must not flag")
	}
	d := h.Traces()
	if len(d.Notable) != 1 || !d.Notable[0].Degraded {
		t.Fatalf("degraded check not notable: %+v", d.Notable)
	}
}

func TestStatsCountTracesOps(t *testing.T) {
	addr, srv := startTracedTCPServer(t)
	c := DialPool(addr, PoolConfig{Size: 1})
	defer c.Close()
	if _, err := c.Traces(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Traces(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.DaemonTracesOps != 2 {
		t.Fatalf("DaemonTracesOps = %d, want 2", st.DaemonTracesOps)
	}
	if !strings.Contains(st.Format(), "2 traces") {
		t.Fatalf("Format omits traces ops:\n%s", st.Format())
	}
}
