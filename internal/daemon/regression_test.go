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

// slamHoldConn reproduces the window where a context fires after a
// successful exchange. The first read that delivers data cancels the
// context and returns only once the context's AfterFunc is slamming the
// deadline into the past, so the round trip's deferred stop finds it
// started. The wrapper holds that slam until the connection is next used
// — a SetDeadline or a Write — and lands it right after, or lands it on
// its own after slamHold. A round trip that returns without waiting out
// the slam thus has it land on the next round trip's I/O.
type slamHoldConn struct {
	net.Conn
	cancel   context.CancelFunc // fired by the first read that delivers data
	slamming chan struct{}      // closed when the slam reaches SetDeadline
	release  chan struct{}      // closed by the next use while the slam is held
	landed   chan struct{}      // closed once the slam is applied
	mu       sync.Mutex
	held     bool
}

const slamHold = 100 * time.Millisecond

func newSlamHoldConn(conn net.Conn, cancel context.CancelFunc) *slamHoldConn {
	return &slamHoldConn{Conn: conn, cancel: cancel, slamming: make(chan struct{}),
		release: make(chan struct{}), landed: make(chan struct{})}
}

func (c *slamHoldConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if cancel := c.cancel; cancel != nil && n > 0 {
		c.cancel = nil
		cancel()
		select {
		case <-c.slamming:
		case <-time.After(5 * time.Second):
		}
	}
	return n, err
}

func (c *slamHoldConn) SetDeadline(t time.Time) error {
	if !t.Before(time.Now()) {
		err := c.Conn.SetDeadline(t)
		c.use()
		return err
	}
	c.mu.Lock()
	c.held = true
	c.mu.Unlock()
	close(c.slamming)
	select {
	case <-c.release:
	case <-time.After(slamHold):
	}
	err := c.Conn.SetDeadline(t)
	close(c.landed)
	return err
}

func (c *slamHoldConn) Write(p []byte) (int, error) {
	c.use()
	return c.Conn.Write(p)
}

// use lands a held slam before the caller's I/O goes on.
func (c *slamHoldConn) use() {
	c.mu.Lock()
	held := c.held
	c.held = false
	c.mu.Unlock()
	if held {
		close(c.release)
		<-c.landed
	}
}

// TestClientCancelAfterReplyKeepsConnHealthy is the regression test for
// the deadline-slam race: ctx canceled between a successful reply decode
// and the deferred AfterFunc stop must not poison the connection for the
// next request. The round trip waits out a started slam (a deadline of
// time.Unix(1, 0)) before it returns and forgets its armed deadline, so
// the next one arms a fresh deadline after the slam. Without the wait the
// slam lands on the next round trip's I/O and breaks a healthy
// connection.
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
	wrapped := newSlamHoldConn(clientSide, cancel)
	c := newClient(wrapped, testTimeout)
	defer func() {
		_ = c.Close()
		_ = serverSide.Close()
		<-serveDone
	}()

	// First request: the reply arrives, the wrapper cancels ctx, and the
	// AfterFunc fires after the decode already succeeded. The call itself
	// must succeed — no bytes were lost.
	reply, err := c.analyze(ctx, benignQuery)
	if err != nil {
		t.Fatalf("first analyze: %v", err)
	}
	if reply.Attack {
		t.Fatal("benign flagged")
	}
	select {
	case <-wrapped.landed:
	default:
		t.Fatal("first round trip returned before its slam landed")
	}

	// Second request on the same connection: a slam landing on it, or a
	// poisoned deadline left in place, fails it with an i/o timeout and
	// marks the connection broken.
	reply, err = c.analyze(context.Background(), benignQuery)
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

// deadlineCountConn counts the deadlines set on a connection.
type deadlineCountConn struct {
	net.Conn
	sets int
}

func (c *deadlineCountConn) SetDeadline(t time.Time) error {
	c.sets++
	return c.Conn.SetDeadline(t)
}

// TestClientArmsDeadlineLazily pins the lazy re-arm: back-to-back round
// trips share one timeout deadline instead of setting one each (every
// SetDeadline on a net.Pipe starts two timers), a shorter ctx deadline
// is armed exactly, and the round trip after it arms the timeout again —
// a ctx deadline never outlives its round trip.
func TestClientArmsDeadlineLazily(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	srv := NewServer(newAnalyzer())
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.ServeConn(serverSide)
	}()
	counted := &deadlineCountConn{Conn: clientSide}
	c := newClient(counted, testTimeout)
	defer func() {
		_ = c.Close()
		_ = serverSide.Close()
		<-serveDone
	}()
	analyze := func(ctx context.Context) {
		t.Helper()
		if _, err := c.analyze(ctx, benignQuery); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		analyze(context.Background())
	}
	if counted.sets != 1 {
		t.Fatalf("20 back-to-back round trips set %d deadlines, want 1", counted.sets)
	}
	if !c.armed.After(time.Now().Add(testTimeout)) {
		t.Fatalf("armed deadline %v grants less than the timeout %v", time.Until(c.armed), testTimeout)
	}
	short, cancel := context.WithTimeout(context.Background(), testTimeout/2)
	defer cancel()
	want, _ := short.Deadline()
	analyze(short)
	if counted.sets != 2 || !c.armed.Equal(want) {
		t.Fatalf("after a short ctx deadline: %d sets, armed %v, want 2 and the ctx deadline", counted.sets, c.armed)
	}
	analyze(context.Background())
	if counted.sets != 3 || !c.armed.After(time.Now().Add(testTimeout)) {
		t.Fatalf("after the ctx round trip: %d sets, armed in %v, want 3 and the full timeout", counted.sets, time.Until(c.armed))
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
	srv := NewServer(newAnalyzer())
	c, stop := spawnOnServer(t, srv)
	defer stop()
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
