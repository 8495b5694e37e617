package daemon

import (
	"context"
	"errors"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"joza/internal/core"
	"joza/internal/engine"
	"joza/internal/fragments"
	"joza/internal/nti"
	"joza/internal/profile"
	"joza/internal/pti"
)

// waitForGoroutines retries until the goroutine count drops back to the
// baseline (the runtime needs a moment to reap exited goroutines).
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerAdmissionSheds(t *testing.T) {
	srv := NewServer(newAnalyzer(), WithAdmission(1, 10*time.Millisecond))
	// Occupy the only slot so the next analyze request must shed.
	if err := srv.gate.Acquire(context.Background()); err != nil {
		t.Fatalf("priming acquire: %v", err)
	}
	clientSide, serverSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	c := newClient(clientSide, 5*time.Second)
	_, err := c.analyze(context.Background(), benignQuery)
	if err == nil || !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("err = %v, want overloaded", err)
	}
	if c.Broken() {
		t.Fatal("shed reply broke the connection — it must ride the healthy stream")
	}
	if got := srv.Stats().ShedRequests; got != 1 {
		t.Fatalf("ShedRequests = %d, want 1", got)
	}
	// Releasing the slot restores service on the same connection.
	srv.gate.Release()
	reply, err := c.analyze(context.Background(), benignQuery)
	if err != nil || reply.Attack {
		t.Fatalf("after release: reply=%+v err=%v", reply, err)
	}
	_ = c.Close()
	<-done
}

// TestServerRefusesHostileOversizedQuery proves a 4 MB query cannot buy
// 4 MB worth of analysis: the budgeted analyzer rejects it up front, the
// engine resolves the refusal fail-closed into an attack reply that
// arrives well inside the client deadline on a healthy stream, and the
// event is counted as over-budget, not as a timeout. The payloads are one
// long comment token and a many-token IN list, which the cache's
// structure key and lexer would otherwise chew through before the cap.
func TestServerRefusesHostileOversizedQuery(t *testing.T) {
	payloads := map[string]string{
		"comment": benignQuery + " -- " + strings.Repeat("A", 4<<20),
		"in-list": "SELECT * FROM records WHERE ID IN (1" + strings.Repeat(",1", 2<<20) + ")",
	}
	for name, hostile := range payloads {
		t.Run(name, func(t *testing.T) {
			set := fragments.NewSet([]string{"SELECT * FROM records WHERE ID=", " LIMIT 5"})
			budgeted := pti.NewCached(pti.New(set, pti.WithMaxQueryBytes(1<<20)), pti.CacheQueryAndStructure, 128)
			srv := NewServer(budgeted, WithMaxRequestBytes(16<<20))
			clientSide, serverSide := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				srv.ServeConn(serverSide)
			}()
			c := newClient(clientSide, testTimeout)
			defer func() {
				_ = c.Close()
				<-done
			}()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			start := time.Now()
			reply, err := c.analyze(ctx, hostile)
			if err != nil {
				t.Fatalf("over-budget query: %v, want a fail-closed reply", err)
			}
			if !reply.Attack || len(reply.Reasons) != 1 || !strings.Contains(reply.Reasons[0].Detail, "budget") {
				t.Fatalf("reply = %+v, want a fail-closed attack naming the budget", reply)
			}
			if elapsed := time.Since(start); elapsed > 3*time.Second {
				t.Fatalf("refusal took %s — the budget must reject before the work, not after", elapsed)
			}
			if c.Broken() {
				t.Fatal("over-budget reply broke the connection — it must ride the healthy stream")
			}
			st := srv.Stats()
			if st.OverBudgetChecks != 1 || st.DaemonTimeouts != 0 {
				t.Fatalf("counters = overBudget %d, timeouts %d; want 1 and 0", st.OverBudgetChecks, st.DaemonTimeouts)
			}
			if st.CacheMisses != 0 {
				t.Fatalf("the oversized query reached the cache (%d misses); the cap must refuse it first", st.CacheMisses)
			}
			// The same connection still serves real traffic.
			reply, err = c.analyze(context.Background(), benignQuery)
			if err != nil || reply.Attack {
				t.Fatalf("after refusal: reply=%+v err=%v", reply, err)
			}
		})
	}
}

// TestOversizedQueryRunsNoStage sends a many-token oversized query as a
// raw analyze frame carrying a call site, to a server with a profile store
// and to a learning one. The byte
// cap must refuse it before any stage runs: a short fail-closed reply with
// no tokens, no cache lookup, and no skeleton computed or learned.
func TestOversizedQueryRunsNoStage(t *testing.T) {
	hostile := "SELECT * FROM records WHERE ID IN (1" + strings.Repeat(",1", 2<<20) + ")"
	set := fragments.NewSet([]string{"SELECT * FROM records WHERE ID=", " LIMIT 5"})
	for _, tc := range []struct {
		name string
		rec  *profile.Recorder
		st   *profile.Store
	}{
		{name: "profiled", st: trainedStore()},
		{name: "learning", rec: profile.NewRecorder()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := pti.NewCached(pti.New(set, pti.WithMaxQueryBytes(1<<20)), pti.CacheQueryAndStructure, 128)
			snap := NewSnapshot(a, engine.ProfileStage{Store: tc.st, Recorder: tc.rec}, "")
			srv := NewServer(a, WithSnapshot(snap), WithMaxRequestBytes(16<<20))
			c := pipeFrames(t, srv)
			r := c.send(wireRequest{Query: hostile, Site: "plugin:records"}).Reply
			if len(c.reply) > 1024 {
				t.Fatalf("reply is %d bytes, want a short refusal", len(c.reply))
			}
			if r == nil || !r.Attack || len(r.Reasons) != 1 || !strings.Contains(r.Reasons[0].Detail, "budget") {
				t.Fatalf("reply = %+v, want a fail-closed attack naming the budget", r)
			}
			if len(r.Tokens) != 0 || r.Profile != nil {
				t.Fatalf("reply = %+v, want no tokens and no profile verdict", r)
			}
			if tc.rec != nil {
				if _, n := tc.rec.Len(); n != 0 {
					t.Fatalf("the recorder learned %d skeletons from a refused query", n)
				}
			}
			if st := srv.Stats(); st.CacheMisses != 0 || st.OverBudgetChecks != 1 {
				t.Fatalf("cache misses %d, over-budget checks %d; want 0 and 1", st.CacheMisses, st.OverBudgetChecks)
			}
		})
	}
}

func TestServerAdmissionShedHonorsRequestBudget(t *testing.T) {
	// The wait for a slot is clamped to the request's propagated deadline
	// budget: a request with 1ms left is shed immediately, not after the
	// configured maxWait.
	srv := NewServer(newAnalyzer(), WithAdmission(1, 10*time.Second))
	if err := srv.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.gate.Release()
	clientSide, serverSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	c := newClient(clientSide, testTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.analyze(ctx, benignQuery)
	if err == nil {
		t.Fatal("expected an error with the slot held")
	}
	if wait := time.Since(start); wait > 3*time.Second {
		t.Fatalf("shed took %v — the 10s maxWait was not clamped to the request budget", wait)
	}
	_ = c.Close()
	<-done
}

func TestServerShutdownDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(newAnalyzer(), WithReadTimeout(time.Minute))
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	c := DialPool(ln.Addr().String(), PoolConfig{Size: 1})
	if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); err != nil {
		t.Fatal(err)
	}
	// The connection now sits idle in the server's read loop; Shutdown
	// must fail that read rather than wait out the minute-long read
	// timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve returned %v, want net.ErrClosed", err)
	}
	if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); err == nil {
		t.Fatal("drained server still answered")
	}
	// Shutdown after Shutdown (and Close after Shutdown) are no-ops.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	waitForGoroutines(t, before)
}

func TestServerShutdownWaitsForInFlight(t *testing.T) {
	// A request waiting on admission when Shutdown begins still gets its
	// answer (shed, here) before its connection handler exits.
	srv := NewServer(newAnalyzer(), WithAdmission(1, 300*time.Millisecond))
	if err := srv.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	clientSide, serverSide := net.Pipe()
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		if !srv.track(serverSide) {
			return
		}
		defer srv.wg.Done()
		srv.ServeConn(serverSide)
	}()
	c := newClient(clientSide, testTimeout)
	replied := make(chan error, 1)
	go func() {
		_, err := c.analyze(context.Background(), benignQuery)
		replied <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the gate
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	err := <-replied
	if err == nil || !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("in-flight request got %v, want an overloaded reply", err)
	}
	<-handlerDone
	_ = c.Close()
}

// flakyDialer dials a real address while up, and fails while down.
type flakyDialer struct {
	addr string
	down atomic.Bool
}

func (d *flakyDialer) dial() (net.Conn, error) {
	if d.down.Load() {
		return nil, errors.New("injected dial failure")
	}
	return net.DialTimeout("tcp", d.addr, time.Second)
}

func TestPoolBreakerTripsAndRecovers(t *testing.T) {
	addr := startTCPServer(t, newAnalyzer())
	d := &flakyDialer{addr: addr}
	d.down.Store(true)
	p := NewPool(d.dial, PoolConfig{
		Size:             1,
		MaxAttempts:      1,
		BackoffMin:       time.Millisecond,
		Timeout:          time.Second,
		BreakerThreshold: 2,
		BreakerCooldown:  200 * time.Millisecond,
	})
	defer p.Close()
	for i := 0; i < 2; i++ {
		if _, err := p.AnalyzeSiteContext(context.Background(), "", benignQuery); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("request %d: err = %v, want ErrUnavailable", i, err)
		}
	}
	if st := p.BreakerStats(); st.State != "open" || st.Trips != 1 {
		t.Fatalf("after threshold failures: %+v, want open with 1 trip", st)
	}
	// While open, requests short-circuit: no new dial attempts.
	dials := p.Dials()
	if _, err := p.AnalyzeSiteContext(context.Background(), "", benignQuery); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("open-breaker err = %v, want ErrUnavailable", err)
	}
	if p.Dials() != dials {
		t.Fatal("open breaker still dialed the daemon")
	}
	if st := p.BreakerStats(); st.Rejects == 0 {
		t.Fatalf("stats = %+v, want rejects counted", st)
	}
	// Heal the daemon; after the cooldown one probe goes through and
	// closes the breaker.
	d.down.Store(false)
	time.Sleep(250 * time.Millisecond)
	reply, err := p.AnalyzeSiteContext(context.Background(), "", benignQuery)
	if err != nil || reply.Attack {
		t.Fatalf("probe: reply=%+v err=%v", reply, err)
	}
	st := p.BreakerStats()
	if st.State != "closed" || st.Probes != 1 {
		t.Fatalf("after successful probe: %+v, want closed with 1 probe", st)
	}
}

func TestPoolBreakerHalfOpenProbeLeaksNothing(t *testing.T) {
	addr := startTCPServer(t, newAnalyzer())
	before := runtime.NumGoroutine()
	d := &flakyDialer{addr: addr}
	d.down.Store(true)
	p := NewPool(d.dial, PoolConfig{
		Size:             2,
		MaxAttempts:      1,
		BackoffMin:       time.Millisecond,
		Timeout:          time.Second,
		BreakerThreshold: 1,
		BreakerCooldown:  10 * time.Millisecond,
	})
	for i := 0; i < 5; i++ {
		_, _ = p.AnalyzeSiteContext(context.Background(), "", benignQuery)
		time.Sleep(15 * time.Millisecond) // let the breaker probe each round
	}
	d.down.Store(false)
	time.Sleep(15 * time.Millisecond)
	if _, err := p.AnalyzeSiteContext(context.Background(), "", benignQuery); err != nil {
		t.Fatalf("after heal: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, before)
}

func TestHybridBreakerInMetricsAndFailureMode(t *testing.T) {
	p := NewPool(func() (net.Conn, error) {
		return nil, errors.New("daemon is gone")
	}, PoolConfig{Size: 1, MaxAttempts: 1, BackoffMin: time.Millisecond, BreakerThreshold: 1})
	h := NewHybridClient(p, nil, 0, WithoutNTI(), WithDegradeMode(DegradeFailOpen))
	defer h.Close()
	if got := h.eng.FailureMode(); got != engine.FailOpen {
		t.Fatalf("engine failure mode = %v, want fail-open to follow DegradeFailOpen", got)
	}
	v, err := h.Check(context.Background(), engine.Request{
		Query:  benignQuery,
		Inputs: []nti.Input{{Source: "get", Name: "id", Value: "5"}},
	})
	if err != nil || v.Attack {
		t.Fatalf("degraded check: v=%+v err=%v", v, err)
	}
	snap := h.Metrics()
	if snap.DegradedChecks != 1 {
		t.Fatalf("DegradedChecks = %d, want 1", snap.DegradedChecks)
	}
	if snap.BreakerState != "open" || snap.BreakerTrips != 1 {
		t.Fatalf("breaker in metrics = %q/%d trips, want open/1", snap.BreakerState, snap.BreakerTrips)
	}
}

// TestServerContainsStagePanic: a snapshot whose PTI stage panics answers
// through the engine's failure mode — a fail-closed attack reply whose
// reason names the panic — with the panic counted and the connection
// serving the next request, instead of the daemon process dying.
func TestServerContainsStagePanic(t *testing.T) {
	snap := NewSnapshot(newAnalyzer(), engine.ProfileStage{}, "")
	snap.Analyzers = []engine.Analyzer{engine.Func{
		StageName: core.AnalyzerPTI,
		Fn: func(context.Context, engine.Request, *engine.State) (core.Result, error) {
			panic("corrupt fragment index")
		},
	}}
	srv := NewServer(newAnalyzer(), WithSnapshot(snap))
	c, stop := spawnOnServer(t, srv)
	defer stop()
	for i := 1; i <= 2; i++ {
		reply, err := c.analyze(context.Background(), benignQuery)
		if err != nil {
			t.Fatalf("check %d: %v, want a fail-closed reply", i, err)
		}
		if !reply.Attack || len(reply.Reasons) != 1 || !strings.Contains(reply.Reasons[0].Detail, "corrupt fragment index") {
			t.Fatalf("check %d: reply = %+v, want a fail-closed attack naming the panic", i, reply)
		}
		if c.Broken() {
			t.Fatalf("check %d broke the connection", i)
		}
		if got := srv.Stats().PanicsRecovered; got != uint64(i) {
			t.Fatalf("PanicsRecovered = %d after %d checks", got, i)
		}
	}
	// A raw frame peer gets the same reply, without a token stream.
	if resp := pipeFrames(t, srv).send(wireRequest{Query: benignQuery}); resp.Reply == nil || !resp.Reply.Attack || len(resp.Reply.Tokens) != 0 {
		t.Fatalf("raw frame reply = %+v, want a fail-closed attack with no tokens", resp.Reply)
	}
	// Installing a sound snapshot heals the same connection.
	srv.SetSnapshot(NewSnapshot(newAnalyzer(), engine.ProfileStage{}, ""))
	if reply, err := c.analyze(context.Background(), benignQuery); err != nil || reply.Attack {
		t.Fatalf("after the swap: reply=%+v err=%v", reply, err)
	}
}

// TestVersionPinHoldsAcrossCommits races snapshot swaps against pinned
// requests: every reply must come from the pinned snapshot, and every
// other outcome must be the version refusal. A commit may land between the
// handler's pin check and the analysis; the verdict's own version catches
// that.
func TestVersionPinHoldsAcrossCommits(t *testing.T) {
	const pinned, other = "aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb"
	a, b := testSnapshot(pinned), testSnapshot(other)
	srv := NewServer(newAnalyzer(), WithSnapshot(a))
	stopFlip := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for i := 0; ; i++ {
			select {
			case <-stopFlip:
				return
			default:
			}
			if i%2 == 0 {
				srv.SetSnapshot(b)
			} else {
				srv.SetSnapshot(a)
			}
		}
	}()
	c := pipeFrames(t, srv)
	refusal := wireResponse{Err: `version mismatch: request pinned to snapshot "` + pinned + `", daemon serves "` + other + `"`}
	answered := wireResponse{Reply: &AnalysisReply{Version: pinned}}
	for i := 0; i < 2000; i++ {
		if got := c.send(wireRequest{Query: benignQuery, Version: pinned}); !reflect.DeepEqual(got, answered) && !reflect.DeepEqual(got, refusal) {
			t.Fatalf("request %d: %+v", i, got)
		}
	}
	close(stopFlip)
	<-flipped
}
