package daemon

// Fault-injection coverage for the Remote transport: desynced streams,
// read stalls past the deadline, mid-response connection drops, flaky
// listeners, and daemon outages under each degradation policy. Run with
// -race; the scenarios here are the acceptance bar for the pooled
// transport (no call may ever receive another request's reply).

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joza/internal/core"
	"joza/internal/engine"
	"joza/internal/metrics"
	"joza/internal/nti"
	"joza/internal/profile"
)

// TestClientBrokenAfterMidResponseClose injects a connection that dies
// halfway through a response: the call must error, and the client must
// stay persistently broken instead of reading a desynced stream.
func TestClientBrokenAfterMidResponseClose(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	go func() {
		buf := make([]byte, 4096)
		_, _ = serverSide.Read(buf) // consume the request
		_, _ = serverSide.Write([]byte(`{"reply":{"att`))
		_ = serverSide.Close()
	}()
	c := NewClient(clientSide)
	if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); err == nil {
		t.Fatal("truncated response must error")
	}
	if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); !errors.Is(err, ErrBroken) {
		t.Fatalf("client after mid-response close: err = %v, want ErrBroken", err)
	}
	if !c.Broken() {
		t.Error("Broken() = false after I/O failure")
	}
}

// TestClientPartialWriteBreaksConnection injects a connection whose write
// path fails after a partial write: the encoder errors and the client
// must not reuse the half-written stream.
func TestClientPartialWriteBreaksConnection(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	fc := &faultConn{Conn: clientSide, failAfter: 5}
	go func() {
		// Absorb whatever bytes arrive so the partial write completes.
		buf := make([]byte, 4096)
		for {
			if _, err := serverSide.Read(buf); err != nil {
				return
			}
		}
	}()
	c := NewClient(fc)
	if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); err == nil {
		t.Fatal("partial write must error")
	}
	if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); !errors.Is(err, ErrBroken) {
		t.Fatalf("second call: err = %v, want ErrBroken", err)
	}
	_ = serverSide.Close()
}

// faultConn wraps a net.Conn and fails writes after failAfter bytes of
// each Write call have been written (a partial write).
type faultConn struct {
	net.Conn
	failAfter int
}

func (f *faultConn) Write(p []byte) (int, error) {
	if f.failAfter < len(p) {
		n, _ := f.Conn.Write(p[:f.failAfter])
		return n, errors.New("injected write fault")
	}
	return f.Conn.Write(p)
}

// TestClientTimeoutNeverYieldsStaleReply is the desync regression test:
// the daemon answers request 1 after the client's deadline. The client
// must not hand that stale reply (Attack=true) to request 2 — the broken
// connection must fail every later call instead.
func TestClientTimeoutNeverYieldsStaleReply(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	defer serverSide.Close()
	go func() {
		dec := json.NewDecoder(bufio.NewReader(serverSide))
		enc := json.NewEncoder(serverSide)
		var req wireRequest
		if dec.Decode(&req) != nil {
			return
		}
		time.Sleep(200 * time.Millisecond) // past the client deadline
		// The stale answer for request 1, flagged so a mixup is visible.
		_ = enc.Encode(wireResponse{Reply: &AnalysisReply{Attack: true}})
		if dec.Decode(&req) != nil {
			return
		}
		_ = enc.Encode(wireResponse{Reply: &AnalysisReply{Attack: false}})
	}()
	c := NewClient(clientSide)
	c.SetTimeout(30 * time.Millisecond)
	if _, err := c.AnalyzeSiteContext(context.Background(), "", "request one"); err == nil {
		t.Fatal("want deadline error on stalled response")
	}
	reply, err := c.AnalyzeSiteContext(context.Background(), "", "request two")
	if err == nil {
		t.Fatalf("desynced client returned a reply (stale Attack=%v)", reply.Attack)
	}
	if !errors.Is(err, ErrBroken) {
		t.Errorf("err = %v, want ErrBroken", err)
	}
}

// TestPoolReconnectsAfterServerRestart kills every connection by closing
// the server, points the dialer at a replacement daemon, and verifies the
// next request heals via redial instead of failing or serializing.
func TestPoolReconnectsAfterServerRestart(t *testing.T) {
	startServer := func() (*Server, string) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(newAnalyzer())
		go func() { _ = srv.Serve(ln) }()
		return srv, ln.Addr().String()
	}
	srvA, addrA := startServer()
	var target atomic.Value
	target.Store(addrA)
	p := NewPool(func() (net.Conn, error) {
		return net.DialTimeout("tcp", target.Load().(string), time.Second)
	}, PoolConfig{Size: 2, Timeout: time.Second, BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond})
	defer p.Close()

	if reply, err := p.AnalyzeSiteContext(context.Background(), "", attackQuery); err != nil || !reply.Attack {
		t.Fatalf("first request: reply=%+v err=%v", reply, err)
	}
	dialsBefore := p.Dials()

	// Daemon restart: the old process dies, a new one comes up elsewhere.
	_ = srvA.Close()
	srvB, addrB := startServer()
	defer srvB.Close()
	target.Store(addrB)

	reply, err := p.AnalyzeSiteContext(context.Background(), "", attackQuery)
	if err != nil {
		t.Fatalf("request after restart: %v", err)
	}
	if !reply.Attack {
		t.Error("attack missed after reconnect")
	}
	if p.Dials() <= dialsBefore {
		t.Errorf("dials = %d, want > %d (a reconnect)", p.Dials(), dialsBefore)
	}
}

// TestPoolOutageReportsUnavailable exhausts reconnection attempts against
// a dead address and checks the typed error and the exhaustion counter.
func TestPoolOutageReportsUnavailable(t *testing.T) {
	p := NewPool(func() (net.Conn, error) {
		return nil, errors.New("injected dial fault")
	}, PoolConfig{Size: 1, Timeout: 100 * time.Millisecond, MaxAttempts: 3,
		BackoffMin: time.Millisecond, BackoffMax: 2 * time.Millisecond})
	defer p.Close()
	if _, err := p.AnalyzeSiteContext(context.Background(), "", benignQuery); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if p.Exhausted() != 1 {
		t.Errorf("exhausted = %d, want 1", p.Exhausted())
	}
}

// TestPoolNoCrossTalkUnderFaults hammers a pool from many goroutines
// while a disruptor closes live connections mid-flight. Every successful
// reply must belong to the request that asked for it: each request names
// its own call site, and the learning daemon's profile verdict echoes the
// site back. Transport errors are acceptable, mismatches are not. Run
// under -race.
func TestPoolNoCrossTalkUnderFaults(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a := newAnalyzer()
	srv := NewServer(a, WithSnapshot(NewSnapshot(a, engine.ProfileStage{Recorder: profile.NewRecorder()}, "")))
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	var mu sync.Mutex
	var live []net.Conn
	p := NewPool(func() (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		live = append(live, conn)
		mu.Unlock()
		return conn, nil
	}, PoolConfig{Size: 4, Timeout: time.Second, MaxAttempts: 4,
		BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond})
	defer p.Close()

	stop := make(chan struct{})
	var disruptor sync.WaitGroup
	disruptor.Add(1)
	go func() {
		defer disruptor.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			mu.Lock()
			if len(live) > 0 {
				conn := live[i%len(live)]
				if i%2 == 0 {
					_ = conn.Close() // mid-flight for someone
				} else {
					// A read timeout leaves the reply in transit: only a
					// client that retires the connection avoids reading
					// it as the next request's reply.
					_ = conn.SetReadDeadline(time.Unix(1, 0))
				}
			}
			mu.Unlock()
		}
	}()

	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	mismatches := make(chan string, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				marker := fmt.Sprintf("%d", w*perWorker+i+1000)
				query := "SELECT * FROM records WHERE ID=" + marker + " LIMIT 5"
				reply, err := p.AnalyzeSiteContext(context.Background(), marker, query)
				if err != nil {
					continue // transport faults are expected here
				}
				if reply.Profile == nil || reply.Profile.Site != marker {
					mismatches <- marker
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	disruptor.Wait()
	close(mismatches)
	for m := range mismatches {
		t.Errorf("reply for call site %s belonged to another request", m)
	}
}

// TestHybridDegradeFailOpen is the acceptance scenario: with the daemon
// down and fail-open policy, a check yields an NTI-only verdict (NTI
// still catches the injected input) and the degraded-check counter moves.
func TestHybridDegradeFailOpen(t *testing.T) {
	p := NewPool(func() (net.Conn, error) {
		return nil, errors.New("daemon down")
	}, PoolConfig{Size: 1, MaxAttempts: 2, BackoffMin: time.Millisecond, BackoffMax: time.Millisecond})
	defer p.Close()
	collector := metrics.NewCollector()
	h := NewHybridClient(p, nti.MustNew(), core.PolicyTerminate,
		WithDegradeMode(DegradeFailOpen), WithCollector(collector))

	payload := "-1 UNION SELECT username()"
	v, err := h.Check(context.Background(), engine.Request{
		Query:  "SELECT * FROM records WHERE ID=" + payload + " LIMIT 5",
		Inputs: []nti.Input{{Source: "get", Name: "id", Value: payload}},
	})
	if err != nil {
		t.Fatalf("fail-open must not error: %v", err)
	}
	if v.PTI.Attack {
		t.Error("degraded check has no PTI verdict")
	}
	if !v.NTI.Attack || !v.Attack {
		t.Errorf("NTI must still catch the attack: detected by %v", v.DetectedBy())
	}
	// A benign query passes NTI-only screening.
	v, err = h.Check(context.Background(), engine.Request{
		Query:  benignQuery,
		Inputs: []nti.Input{{Source: "get", Name: "id", Value: "5"}},
	})
	if err != nil || v.Attack {
		t.Errorf("benign fail-open check: v=%+v err=%v", v, err)
	}
	snap := collector.Snapshot()
	if snap.DegradedChecks != 2 {
		t.Errorf("DegradedChecks = %d, want 2", snap.DegradedChecks)
	}
	if snap.Checks != 2 || snap.NTIAttacks != 1 {
		t.Errorf("checks = %d, ntiAttacks = %d", snap.Checks, snap.NTIAttacks)
	}
	if !strings.Contains(snap.Format(), "degraded checks") {
		t.Error("Format omits degraded checks")
	}
}

// TestHybridDegradeFailClosed pins the conservative policy: outage means
// every query is treated as an attack, Authorize blocks, and the audit
// log records the synthesized verdict.
func TestHybridDegradeFailClosed(t *testing.T) {
	c, stopDaemon := SpawnPipe(newAnalyzer())
	stopDaemon() // daemon gone; client transport broken
	var auditBuf syncBuffer
	collector := metrics.NewCollector()
	h := NewHybridClient(c, nti.MustNew(), core.PolicyTerminate,
		WithDegradeMode(DegradeFailClosed), WithCollector(collector), WithAuditLog(&auditBuf))

	v, err := h.Check(context.Background(), engine.Request{Query: benignQuery})
	if err != nil {
		t.Fatalf("fail-closed must synthesize a verdict, not error: %v", err)
	}
	if !v.Attack || !v.PTI.Attack {
		t.Errorf("fail-closed verdict = %+v", v)
	}
	if len(v.PTI.Reasons) == 0 || !strings.Contains(v.PTI.Reasons[0].Detail, "fail-closed") {
		t.Errorf("reasons = %v", v.PTI.Reasons)
	}
	if err := h.Authorize(context.Background(), engine.Request{Query: benignQuery}); err == nil {
		t.Error("Authorize must block under fail-closed outage")
	}
	if collector.Snapshot().DegradedChecks == 0 {
		t.Error("degraded checks not counted")
	}
	if !strings.Contains(auditBuf.String(), "fail-closed") {
		t.Errorf("audit log missing degraded block: %q", auditBuf.String())
	}
}

// TestHybridDegradeErrorDefault pins the legacy default: transport errors
// propagate to the caller unchanged.
func TestHybridDegradeErrorDefault(t *testing.T) {
	c, stopDaemon := SpawnPipe(newAnalyzer())
	stopDaemon()
	h := NewHybridClient(c, nti.MustNew(), core.PolicyTerminate)
	if _, err := h.Check(context.Background(), engine.Request{Query: benignQuery}); err == nil {
		t.Error("default degrade mode must propagate transport errors")
	}
}

// TestHybridRecordsMetricsAndAudit verifies a healthy remote deployment
// now gets the same counters and attack log an in-process Guard does.
func TestHybridRecordsMetricsAndAudit(t *testing.T) {
	c, stopDaemon := SpawnPipe(newAnalyzer())
	defer stopDaemon()
	var auditBuf syncBuffer
	h := NewHybridClient(c, nti.MustNew(), core.PolicyTerminate, WithAuditLog(&auditBuf))
	if _, err := h.Check(context.Background(), engine.Request{Query: benignQuery}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Check(context.Background(), engine.Request{Query: attackQuery}); err != nil {
		t.Fatal(err)
	}
	snap := h.Metrics()
	if snap.Checks != 2 || snap.Attacks != 1 || snap.PTIAttacks != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
	line := strings.TrimSpace(auditBuf.String())
	if line == "" {
		t.Fatal("attack not audited")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("audit line not JSON: %v (%s)", err, line)
	}
	if rec["query"] != attackQuery {
		t.Errorf("audited query = %v", rec["query"])
	}
}

// syncBuffer is a strings.Builder safe for the logger's serialized writes
// plus the test's concurrent read.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServerAcceptRetriesTemporaryErrors feeds Serve a listener that
// fails several accepts before recovering: the daemon must stay up and
// serve the connection that eventually arrives.
func TestServerAcceptRetriesTemporaryErrors(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: inner}
	fl.failures.Store(3) // EMFILE-style burst
	srv := NewServer(newAnalyzer())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(fl)
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
	})
	c, err := Dial(inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply, err := c.AnalyzeSiteContext(context.Background(), "", attackQuery)
	if err != nil {
		t.Fatalf("daemon died on transient accept errors: %v", err)
	}
	if !reply.Attack {
		t.Error("attack missed")
	}
}

// flakyListener injects temporary Accept errors before delegating.
type flakyListener struct {
	net.Listener
	failures atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failures.Add(-1) >= 0 {
		return nil, tempErr{}
	}
	return l.Listener.Accept()
}

type tempErr struct{}

func (tempErr) Error() string   { return "accept: too many open files" }
func (tempErr) Temporary() bool { return true }
func (tempErr) Timeout() bool   { return false }

// TestServerReadTimeoutDropsStalledConn pins the per-connection read
// deadline: a client that connects and sends nothing is dropped and
// counted.
func TestServerReadTimeoutDropsStalledConn(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	defer clientSide.Close()
	srv := NewServer(newAnalyzer(), WithReadTimeout(30*time.Millisecond))
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("stalled connection not dropped by read deadline")
	}
	if got := srv.Stats().DaemonTimeouts; got != 1 {
		t.Errorf("DaemonTimeouts = %d, want 1", got)
	}
}

// TestServerMaxRequestBytes drops connections whose request exceeds the
// cap instead of buffering it.
func TestServerMaxRequestBytes(t *testing.T) {
	srv := NewServer(newAnalyzer(), WithMaxRequestBytes(1024))
	c, stop := spawnOnServer(t, srv)
	defer stop()
	huge := strings.Repeat("A", 64<<10)
	if _, err := c.AnalyzeSiteContext(context.Background(), "", huge); err == nil {
		t.Fatal("oversized request must break the connection")
	}
	// Within the cap still works on a fresh connection.
	c2, stop2 := spawnOnServer(t, srv)
	defer stop2()
	if _, err := c2.AnalyzeSiteContext(context.Background(), "", benignQuery); err != nil {
		t.Fatalf("normal request after oversized one: %v", err)
	}
}

// TestServerPerOpCounters drives each verb and checks the per-op counters
// land in the snapshot.
func TestServerPerOpCounters(t *testing.T) {
	srv := NewServer(newAnalyzer())
	c, stop := spawnOnServer(t, srv)
	defer stop()
	for i := 0; i < 3; i++ {
		if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.roundTrip(context.Background(), wireRequest{Op: "flush"}); err == nil {
		t.Fatal("unknown op must error")
	}
	st := srv.Stats()
	if st.DaemonAnalyzeOps != 3 || st.DaemonStatsOps < 1 || st.DaemonErrors != 1 {
		t.Errorf("per-op counters = analyze %d, stats %d, errors %d",
			st.DaemonAnalyzeOps, st.DaemonStatsOps, st.DaemonErrors)
	}
	if !strings.Contains(st.Format(), "daemon ops:") {
		t.Error("Format omits daemon ops")
	}
}

// spawnOnServer connects a pipe client to an existing server.
func spawnOnServer(t *testing.T, srv *Server) (*Client, func()) {
	t.Helper()
	clientSide, serverSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	return NewClient(clientSide), func() {
		_ = clientSide.Close()
		_ = serverSide.Close()
		<-done
	}
}
