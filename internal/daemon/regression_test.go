package daemon

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"
)

// cancelOnReadConn cancels a context as soon as one read delivers data —
// i.e. exactly between the server's reply arriving and the client's
// deferred AfterFunc stop — then yields long enough for the AfterFunc to
// run. It reproduces the window where a context fires after a successful
// exchange: the AfterFunc slams the connection deadline into the past, and
// an unfixed client leaves that poisoned deadline in place.
type cancelOnReadConn struct {
	net.Conn
	mu     sync.Mutex
	cancel context.CancelFunc
}

func (c *cancelOnReadConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	cancel := c.cancel
	c.cancel = nil
	c.mu.Unlock()
	if cancel != nil && n > 0 {
		cancel()
		// Give the context's AfterFunc goroutine time to start (and slam
		// the deadline) before the client's deferred stop() runs.
		time.Sleep(20 * time.Millisecond)
	}
	return n, err
}

// TestClientCancelAfterReplyKeepsConnHealthy is the regression test for
// the deadline-slam race: ctx canceled between a successful reply decode
// and the deferred AfterFunc stop must not poison the connection for the
// next request. Before the fix, a timeout-less client never cleared the
// slammed deadline (set to time.Unix(1, 0) by the AfterFunc), so the next
// round trip failed instantly with an i/o timeout and broke a perfectly
// healthy connection.
func TestClientCancelAfterReplyKeepsConnHealthy(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	srv := NewServer(newAnalyzer())
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.ServeConn(serverSide)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wrapped := &cancelOnReadConn{Conn: clientSide, cancel: cancel}
	c := NewClient(wrapped)
	defer func() {
		_ = c.Close()
		_ = serverSide.Close()
		<-serveDone
	}()

	// First request: the reply arrives, the wrapper cancels ctx, and the
	// AfterFunc fires after the decode already succeeded. The call itself
	// must succeed — no bytes were lost.
	reply, err := c.AnalyzeSiteContext(ctx, "", benignQuery)
	if err != nil {
		t.Fatalf("first analyze: %v", err)
	}
	if reply.Attack {
		t.Fatal("benign flagged")
	}

	// Second request on the same connection: with the poisoned deadline
	// left in place this fails immediately with an i/o timeout and marks
	// the connection broken.
	reply, err = c.AnalyzeSiteContext(context.Background(), "", benignQuery)
	if err != nil {
		t.Fatalf("second analyze after post-reply cancellation: %v (connection poisoned by stale deadline)", err)
	}
	if reply.Attack {
		t.Fatal("benign flagged")
	}
	if c.Broken() {
		t.Fatal("connection marked broken after a healthy exchange")
	}
}

// TestTimeoutBudgetOverflowClamped is the regression test for the
// TimeoutMs overflow: a hostile (or corrupted) budget near MaxInt64 used
// to overflow time.Duration(ms)*time.Millisecond into a negative value,
// yielding an already-expired context — the request failed with a deadline
// error it never earned. The server must clamp before multiplying and
// serve the request normally.
func TestTimeoutBudgetOverflowClamped(t *testing.T) {
	for _, ms := range []int64{math.MaxInt64, math.MaxInt64 / 1000, maxTimeoutMs + 1} {
		ctx, cancel := budgetContext(context.Background(), ms)
		if err := ctx.Err(); err != nil {
			t.Errorf("budgetContext(%d): context dead on arrival: %v", ms, err)
		}
		if d, ok := ctx.Deadline(); !ok || time.Until(d) <= 0 {
			t.Errorf("budgetContext(%d): deadline %v (ok=%v), want a future deadline", ms, d, ok)
		}
		cancel()
	}

	// End to end over the wire: a frame carrying the hostile budget must
	// be analyzed, not rejected.
	clientSide, serverSide := net.Pipe()
	srv := NewServer(newAnalyzer())
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.ServeConn(serverSide)
	}()
	c := NewClient(clientSide)
	defer func() {
		_ = c.Close()
		_ = serverSide.Close()
		<-serveDone
	}()
	resp, err := c.roundTrip(context.Background(), wireRequest{
		Query:     benignQuery,
		TimeoutMs: math.MaxInt64,
	})
	if err != nil {
		t.Fatalf("analyze with TimeoutMs=MaxInt64: %v (budget overflowed into an expired deadline)", err)
	}
	if resp.Reply == nil || resp.Reply.Attack {
		t.Fatalf("reply = %+v, want benign verdict", resp.Reply)
	}
}

// TestServeAfterCloseReleasesListener is the regression test for the
// Close/Serve registration race: a Close that lands before Serve records
// the listener cannot reach it, so Serve must close it on the way out.
// Before the fix the listener leaked open — the kernel kept completing
// handshakes into a backlog nothing accepted, and clients to the "dead"
// daemon hung until their timeout instead of failing fast with a refused
// connection.
func TestServeAfterCloseReleasesListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := NewServer(newAnalyzer())
	_ = srv.Close()
	if err := srv.Serve(ln); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Serve on closed server = %v, want net.ErrClosed", err)
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Fatal("dial to a closed daemon connected; Serve leaked the listener")
	}
}

// failingListener fails Accept with a transient error until closed,
// signalling the test just as Serve is about to enter its longest backoff
// sleep.
type failingListener struct {
	fails    int
	capped   chan struct{}
	mu       sync.Mutex
	closed   bool
	signaled bool
}

type tempAcceptError struct{}

func (tempAcceptError) Error() string   { return "accept: too many open files" }
func (tempAcceptError) Timeout() bool   { return false }
func (tempAcceptError) Temporary() bool { return true }

func (l *failingListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, net.ErrClosed
	}
	l.fails++
	// Backoff doubles from 5ms per failure: after the 9th it has reached
	// the 1s cap, so the sleep that follows this return is the long one.
	if l.fails == 9 && !l.signaled {
		l.signaled = true
		close(l.capped)
	}
	return nil, tempAcceptError{}
}

func (l *failingListener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

func (l *failingListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
}

// TestServeAcceptBackoffInterruptible is the regression test for the
// uninterruptible accept backoff: Serve's sleep between failed Accepts
// must abort as soon as the server is closed. Before the fix the loop used
// a bare time.Sleep, so a Close issued mid connection-storm waited out up
// to a full capped backoff (1s) before Serve returned.
func TestServeAcceptBackoffInterruptible(t *testing.T) {
	ln := &failingListener{capped: make(chan struct{})}
	srv := NewServer(newAnalyzer())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case <-ln.capped:
	case <-time.After(10 * time.Second):
		t.Fatal("accept backoff never reached the cap")
	}
	// Serve is inside (or entering) its 1s capped sleep now.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	_ = srv.Close()
	select {
	case err := <-serveErr:
		if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
			t.Fatalf("Serve took %v to return after Close; the backoff sleep is not interruptible", elapsed)
		}
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve returned %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}
