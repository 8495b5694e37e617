package daemon

import (
	"context"
	"errors"
	"joza/internal/engine"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"joza/internal/core"
	"joza/internal/nti"
)

// stallConn returns a client-side connection whose server side reads
// requests forever and never replies, plus a cleanup.
func stallConn(t *testing.T) net.Conn {
	t.Helper()
	clientSide, serverSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for {
			if _, err := serverSide.Read(buf); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		_ = serverSide.Close()
		_ = clientSide.Close()
		<-done
	})
	return clientSide
}

func TestClientPreCanceledLeavesConnHealthy(t *testing.T) {
	c, stop := spawnOnServer(t, NewServer(newAnalyzer()))
	defer stop()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.analyze(ctx, benignQuery); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.Broken() {
		t.Fatal("pre-flight cancellation must not break the connection")
	}
	// The same connection still serves requests: no bytes were written, so
	// the stream stayed in sync.
	reply, err := c.analyze(context.Background(), benignQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Attack {
		t.Error("benign flagged")
	}
}

func TestClientCancelMidRoundTripSurfacesCtxError(t *testing.T) {
	c := newClient(stallConn(t), testTimeout)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.analyze(ctx, benignQuery)
		errc <- err
	}()
	// Let the request get in flight, then abandon it.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unblock the round trip")
	}
	// The stream may hold a stray late reply; the connection must be dead.
	if !c.Broken() {
		t.Error("mid-exchange cancellation must break the connection")
	}
}

func TestClientDeadlineSurfacesCtxError(t *testing.T) {
	c := newClient(stallConn(t), testTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.analyze(ctx, benignQuery)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestServerHonorsWireDeadline(t *testing.T) {
	// A negative TimeoutMs arrives already expired — the deterministic form
	// of "the client's deadline passed while the request was in flight".
	// The server must refuse the work, report the context error, and count
	// a timeout; the wire protocol itself stays healthy.
	srv := NewServer(newAnalyzer())
	c, stop := spawnOnServer(t, srv)
	defer stop()

	_, err := c.roundTrip(context.Background(), wireRequest{Query: benignQuery, TimeoutMs: -1})
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want daemon-side deadline error", err)
	}
	if c.Broken() {
		t.Error("a daemon-level error must not break the wire stream")
	}
	if got := srv.Stats().DaemonTimeouts; got != 1 {
		t.Errorf("DaemonTimeouts = %d, want 1", got)
	}
	// A request with budget to spare sails through on the same connection.
	reply, err := c.analyze(context.Background(), benignQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Attack {
		t.Error("benign flagged")
	}
	if got := srv.Stats().Checks; got != 1 {
		t.Errorf("server recorded %d checks, want 1 (timed-out analyze must not count)", got)
	}
}

func TestWithTimeoutBudget(t *testing.T) {
	if req := withTimeoutBudget(context.Background(), wireRequest{}); req.TimeoutMs != 0 {
		t.Errorf("no deadline: TimeoutMs = %d, want 0", req.TimeoutMs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if req := withTimeoutBudget(ctx, wireRequest{}); req.TimeoutMs <= 0 {
		t.Errorf("live deadline: TimeoutMs = %d, want > 0", req.TimeoutMs)
	}
	spent, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if req := withTimeoutBudget(spent, wireRequest{}); req.TimeoutMs != -1 {
		t.Errorf("spent deadline: TimeoutMs = %d, want -1", req.TimeoutMs)
	}
}

func TestPoolCanceledWhileSlotsBusy(t *testing.T) {
	// One slot, occupied by a request against a stalled upstream: a second
	// request whose context is already done must fail with the context
	// error instead of queueing behind it.
	var mu sync.Mutex
	var serverSides []net.Conn
	p := NewPool(func() (net.Conn, error) {
		clientSide, serverSide := net.Pipe()
		mu.Lock()
		serverSides = append(serverSides, serverSide)
		mu.Unlock()
		go func() {
			buf := make([]byte, 4096)
			for {
				if _, err := serverSide.Read(buf); err != nil {
					return
				}
			}
		}()
		return clientSide, nil
	}, PoolConfig{Size: 1, Timeout: time.Minute, MaxAttempts: 1})
	defer func() {
		_ = p.Close()
		mu.Lock()
		for _, s := range serverSides {
			_ = s.Close()
		}
		mu.Unlock()
	}()

	firstCtx, cancelFirst := context.WithCancel(context.Background())
	firstErr := make(chan error, 1)
	go func() {
		_, err := p.AnalyzeSiteContext(firstCtx, "", benignQuery)
		firstErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the first request claim the slot

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := p.AnalyzeSiteContext(ctx, "", benignQuery); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("canceled request waited %v for a slot", elapsed)
	}

	cancelFirst()
	select {
	case err := <-firstErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("first request err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first request did not observe cancellation")
	}
}

func TestHybridCheckContextPreCanceled(t *testing.T) {
	h := NewHybridClient(NewDirect(newAnalyzer()), nti.MustNew(), core.PolicyTerminate)
	defer h.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := h.Check(ctx, engine.Request{Query: benignQuery})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := h.Metrics().Checks; n != 0 {
		t.Errorf("canceled check recorded %d checks", n)
	}
	// The transport stays healthy for the next check.
	v, err := h.Check(context.Background(), engine.Request{Query: benignQuery})
	if err != nil {
		t.Fatal(err)
	}
	if v.Attack {
		t.Error("benign flagged")
	}
}

// TestPooledClientIdlesPastItsTimeout: a round trip leaves its
// connection deadline armed, so a pooled connection
// idles past it. The next round trip re-arms the deadline before any I/O,
// so both checks succeed on the one connection.
func TestPooledClientIdlesPastItsTimeout(t *testing.T) {
	srv := NewServer(newAnalyzer())
	p := NewPool(func() (net.Conn, error) {
		clientSide, serverSide := net.Pipe()
		go srv.ServeConn(serverSide)
		return clientSide, nil
	}, PoolConfig{Size: 1, Timeout: 20 * time.Millisecond})
	defer p.Close()
	for i := range 2 {
		if i > 0 {
			time.Sleep(50 * time.Millisecond)
		}
		if _, err := p.AnalyzeSiteContext(context.Background(), "", benignQuery); err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
	}
	if n := p.Dials(); n != 1 {
		t.Errorf("pool dialed %d connections, want 1", n)
	}
}
