package daemon

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"joza/internal/pti"
)

// ErrBroken marks a connection that failed mid-exchange. After any send
// or receive error the stream may be desynced — a stale or partial
// response could still be in flight — so the connection is closed and
// every later round trip on it fails with this error rather than risk
// returning another request's reply. The Pool replaces broken
// connections.
var ErrBroken = errors.New("daemon: connection broken")

// client is one pooled connection: it speaks the daemon protocol, bounds
// every round trip with a deadline and serializes the round trips made on
// it.
type client struct {
	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	timeout time.Duration // bounds each round trip, send to receive; > 0
	armed   time.Time     // the deadline last set on conn; zero after a slam
	err     error         // sticky; set on the first I/O failure or Close
	// in and out are the connection's frame buffers: each request is built
	// in out, and each reply read from br into in.
	in, out []byte
}

// newClient wraps an established connection whose round trips each get
// timeout (> 0). A round trip that misses it breaks the connection: the
// reply may still arrive later, and a desynced stream must never be read
// again.
func newClient(conn net.Conn, timeout time.Duration) *client {
	return &client{conn: conn, br: bufio.NewReader(conn), timeout: timeout}
}

// Broken reports whether the connection has failed and is permanently
// unusable.
func (c *client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// roundTrip sends one request and reads its response, marking the
// connection broken on any I/O error. ctx bounds the exchange: its
// deadline (when earlier than the client timeout) becomes the connection
// deadline, and cancellation slams the connection so a blocked read or
// write returns immediately. An already-done ctx fails before any I/O and
// leaves the connection healthy.
func (c *client) roundTrip(ctx context.Context, req wireRequest) (wireResponse, error) {
	if err := ctx.Err(); err != nil {
		// No bytes were written: the stream is still in sync, so the
		// connection survives an expired context untouched.
		return wireResponse{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return wireResponse{}, c.err
	}
	// The deadline is in place before any I/O and stays armed between
	// round trips. One earned by the timeout is armed an eighth of the
	// timeout late and kept while it still grants the full timeout, so a
	// busy connection re-arms once per eighth rather than per round trip:
	// every SetDeadline on a net.Pipe starts two timers.
	deadline := time.Now().Add(c.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		if !d.Equal(c.armed) {
			c.arm(d)
		}
	} else if c.armed.Before(deadline) {
		c.arm(deadline.Add(c.timeout / 8))
	}
	if ctx.Done() != nil {
		// Cancellation mid-exchange moves the deadline into the past,
		// failing the in-flight read or write right away.
		slammed := make(chan struct{})
		stop := context.AfterFunc(ctx, func() {
			defer close(slammed)
			_ = c.conn.SetDeadline(time.Unix(1, 0))
		})
		defer func() {
			if !stop() {
				// The context fired between the successful exchange and
				// this stop: the AfterFunc has started and may be slamming
				// the deadline right now. Wait it out and forget the armed
				// deadline, so the slam cannot land after the next round
				// trip has armed its own, and that round trip arms anew.
				<-slammed
				c.armed = time.Time{}
			}
		}()
	}
	resp, err := c.exchange(ctx, &req)
	if err != nil {
		return wireResponse{}, err
	}
	if resp.Err != "" {
		return wireResponse{}, fmt.Errorf("daemon: %s", resp.Err)
	}
	return resp, nil
}

// arm sets the connection deadline. Must be called with mu held.
func (c *client) arm(deadline time.Time) {
	_ = c.conn.SetDeadline(deadline)
	c.armed = deadline
}

// exchange sends req as one frame and reads its reply frame, which must
// be of the same kind. Must be called with mu held.
func (c *client) exchange(ctx context.Context, req *wireRequest) (wireResponse, error) {
	var kind byte
	var err error
	if c.out, kind, err = appendRequestBody(beginFrame(c.out), req); err != nil {
		return wireResponse{}, err
	}
	if _, err := c.conn.Write(finishFrame(c.out, kind)); err != nil {
		return wireResponse{}, c.broke("send", ctxCause(ctx, err))
	}
	got, n, err := readFrameHead(c.br)
	if err == nil && got != kind {
		err = errFrame
	}
	if err == nil {
		c.in, err = readBody(c.br, c.in, n)
	}
	if err != nil {
		return wireResponse{}, c.broke("recv", ctxCause(ctx, err))
	}
	resp, err := parseResponse(kind, c.in, req)
	if err != nil {
		return wireResponse{}, c.broke("recv", err)
	}
	return resp, nil
}

// ctxCause substitutes ctx's error for an I/O error caused by context
// cancellation or expiry, so callers can match context.Canceled and
// context.DeadlineExceeded through the transport's error wrapping.
func ctxCause(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	// The connection deadline and the context's timer race: when both are
	// set to the same instant, the read can fail with an i/o timeout a
	// moment before ctx.Err() flips. If the context's deadline has passed,
	// the timeout is the context's.
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			return context.DeadlineExceeded
		}
	}
	return err
}

// withTimeoutBudget stamps the remaining ctx deadline budget onto an
// analyze request so the server bounds its own work identically.
func withTimeoutBudget(ctx context.Context, req wireRequest) wireRequest {
	if d, ok := ctx.Deadline(); ok {
		ms := time.Until(d).Milliseconds()
		if ms < 1 {
			// Sub-millisecond (or spent) budget: the pre-flight ctx check
			// fails the call; -1 keeps a stamped request unambiguous for
			// the server if it is ever sent.
			ms = -1
		}
		req.TimeoutMs = ms
	}
	return req
}

// broke records the sticky failure, closes the connection, and returns
// the error for the call that hit it. Must be called with mu held.
func (c *client) broke(stage string, cause error) error {
	c.err = fmt.Errorf("%w (%s: %v)", ErrBroken, stage, cause)
	_ = c.conn.Close()
	return fmt.Errorf("daemon %s: %w", stage, cause)
}

// Close closes the connection; every later round trip fails.
func (c *client) Close() error {
	c.mu.Lock()
	if c.err == nil {
		c.err = net.ErrClosed
	}
	c.mu.Unlock()
	return c.conn.Close()
}

// SpawnPipe starts a daemon over in-memory pipes — the analogue of
// launching the daemon on demand and talking over anonymous pipes. It
// returns a one-connection Pool whose dialer opens a net.Pipe served by
// the spawned daemon; the returned stop function closes the pool and
// waits for every connection the daemon served to end.
func SpawnPipe(analyzer *pti.Cached) (pool *Pool, stop func()) {
	srv := NewServer(analyzer)
	var served sync.WaitGroup
	pool = NewPool(func() (net.Conn, error) {
		clientSide, serverSide := net.Pipe()
		served.Add(1)
		go func() {
			defer served.Done()
			srv.ServeConn(serverSide)
		}()
		return clientSide, nil
	}, PoolConfig{Size: 1})
	return pool, func() {
		_ = pool.Close()
		served.Wait()
	}
}
