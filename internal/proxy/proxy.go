// Package proxy deploys Joza as a database proxy: it speaks the minidb
// wire protocol on the front, checks every query with the hybrid guard,
// and forwards safe queries to the backing database. This is the natural
// Go deployment of the paper's architecture — instead of wrapping PHP's
// mysql_* functions, the interception point is the database connection
// itself. Requests carry the originating HTTP request's raw inputs so the
// NTI component can correlate them with the query.
package proxy

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"joza"
	"joza/internal/guardrail"
	"joza/internal/minidb"
)

// Backend executes requests that passed the guard. ctx is the
// per-connection context: it ends when the proxy shuts down or the
// requesting client disconnects, and a backend should stop waiting on its
// upstream when it does.
type Backend interface {
	Execute(ctx context.Context, req *minidb.Request) *minidb.Response
}

// LocalBackend executes against an in-process database.
type LocalBackend struct {
	DB *minidb.DB
}

var _ Backend = LocalBackend{}

// Execute implements Backend. The in-process engine is fast enough that
// ctx is not consulted mid-statement.
func (b LocalBackend) Execute(_ context.Context, req *minidb.Request) *minidb.Response {
	return minidb.ExecuteRequest(b.DB, req)
}

// RemoteBackend's default pool size, and the bound on one upstream dial.
const (
	defaultRemotePoolSize = 4
	remoteDialTimeout     = 2 * time.Second
)

// upstreamConn pairs a wire client with its raw connection so Execute can
// slam a deadline on cancellation (the client itself blocks in a read).
type upstreamConn struct {
	conn   net.Conn
	client *minidb.Client
}

// RemoteBackend forwards to an upstream minidb server over TCP through a
// fixed-size connection pool, mirroring the daemon transport's Pool:
// concurrent requests proceed in parallel instead of serializing on a
// single connection's mutex, dialing is lazy, and a connection broken by
// an upstream restart is discarded so the next request redials instead of
// poisoning the backend.
type RemoteBackend struct {
	addr string
	// slots holds the pool's connections; a nil entry is an empty slot
	// dialed on first use or after its connection broke.
	slots chan *upstreamConn
	done  chan struct{}
	once  sync.Once

	dials atomic.Uint64
}

var _ Backend = (*RemoteBackend)(nil)

// RemoteOption configures a RemoteBackend.
type RemoteOption func(*RemoteBackend)

// WithPoolSize sets the number of pooled upstream connections — the
// backend's request concurrency (default 4).
func WithPoolSize(n int) RemoteOption {
	return func(b *RemoteBackend) {
		if n > 0 {
			b.slots = make(chan *upstreamConn, n)
		}
	}
}

// NewRemoteBackend returns a pooled backend that lazily connects to addr.
func NewRemoteBackend(addr string, opts ...RemoteOption) *RemoteBackend {
	b := &RemoteBackend{
		addr: addr,
		done: make(chan struct{}),
	}
	for _, o := range opts {
		o(b)
	}
	if b.slots == nil {
		b.slots = make(chan *upstreamConn, defaultRemotePoolSize)
	}
	for i := 0; i < cap(b.slots); i++ {
		b.slots <- nil
	}
	return b
}

// Dials returns how many upstream connections the backend has
// established; a value above the pool size means broken connections have
// been replaced.
func (b *RemoteBackend) Dials() uint64 { return b.dials.Load() }

// Execute implements Backend. It runs the request over a pooled
// connection: a broken connection is discarded and replaced once (a
// pooled connection may have gone stale since its last use), and ctx
// aborts both the wait for a free slot and a blocked upstream round trip.
func (b *RemoteBackend) Execute(ctx context.Context, req *minidb.Request) *minidb.Response {
	var slot *upstreamConn
	select {
	case slot = <-b.slots:
	case <-b.done:
		return &minidb.Response{Error: "upstream pool closed"}
	case <-ctx.Done():
		return &minidb.Response{Error: fmt.Sprintf("upstream: %v", ctx.Err())}
	}
	// Always return the slot — nil after a failure, so the next request
	// redials lazily. Close drains exactly cap(slots) entries and closes
	// whatever connections it receives, so a request finishing late hands
	// its connection to Close rather than leaking it.
	defer func() { b.slots <- slot }()
	for attempt := 0; ; attempt++ {
		if slot == nil {
			conn, err := net.DialTimeout("tcp", b.addr, remoteDialTimeout)
			if err != nil {
				return &minidb.Response{Error: fmt.Sprintf("upstream unavailable: %v", err)}
			}
			b.dials.Add(1)
			slot = &upstreamConn{conn: conn, client: minidb.NewClient(conn)}
		}
		// A canceled ctx slams the connection's deadline so the blocked
		// read returns immediately; the connection is then discarded.
		stop := context.AfterFunc(ctx, func() {
			_ = slot.conn.SetDeadline(time.Unix(1, 0))
		})
		res, err := slot.client.QueryWithInputs(req.Query, nil)
		stop()
		if err == nil {
			return &minidb.Response{
				Columns:  res.Columns,
				Rows:     res.Rows,
				Affected: res.Affected,
				DelayMs:  res.Delay.Seconds() * 1000,
			}
		}
		// Database errors ride a healthy stream; pass them through.
		var ee *minidb.ExecError
		if errors.As(err, &ee) {
			return &minidb.Response{Error: ee.Msg}
		}
		// Transport error: the stream may hold a stray late reply, so the
		// connection cannot be reused.
		_ = slot.client.Close()
		slot = nil
		if cerr := ctx.Err(); cerr != nil {
			return &minidb.Response{Error: fmt.Sprintf("upstream: %v", cerr)}
		}
		if attempt > 0 {
			return &minidb.Response{Error: fmt.Sprintf("upstream: %v", err)}
		}
		// First failure on a pooled connection: it likely went stale
		// between requests (upstream restart); retry once on a fresh dial.
	}
}

// Close closes the pool: it reclaims and closes all pooled connections,
// waiting for in-flight requests to hand theirs back.
func (b *RemoteBackend) Close() error {
	var err error
	b.once.Do(func() {
		close(b.done)
		for i := 0; i < cap(b.slots); i++ {
			if c := <-b.slots; c != nil {
				if cerr := c.client.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}
		}
	})
	return err
}

// Proxy is a Joza-guarded minidb wire server.
type Proxy struct {
	guard   joza.Checker
	backend Backend
	gate    *guardrail.Gate

	// draining makes connection handlers stop picking up new requests;
	// set by Shutdown before it waits for in-flight work. drainCh wakes
	// handlers idling between requests.
	draining atomic.Bool
	drainCh  chan struct{}

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool

	blockedCount uint64
	passedCount  uint64
	shedCount    atomic.Uint64
}

// Option configures a Proxy.
type Option func(*Proxy)

// WithAdmission bounds how many requests the proxy processes concurrently
// — check plus backend execution: at most limit in flight, with excess
// requests waiting up to maxWait for a slot before being shed with an
// "overloaded" error response on a healthy connection. limit <= 0 (the
// default) disables admission control.
func WithAdmission(limit int, maxWait time.Duration) Option {
	return func(p *Proxy) { p.gate = guardrail.NewGate(limit, maxWait) }
}

// New returns a proxy that checks queries with guard — an in-process
// *joza.Guard or a daemon-backed *joza.RemoteGuard — before handing them
// to backend.
func New(guard joza.Checker, backend Backend, opts ...Option) *Proxy {
	p := &Proxy{
		guard:   guard,
		backend: backend,
		conns:   make(map[net.Conn]struct{}),
		drainCh: make(chan struct{}),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Serve accepts client connections until Close.
func (p *Proxy) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return net.ErrClosed
	}
	p.ln = ln
	p.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = conn.Close()
			return net.ErrClosed
		}
		p.conns[conn] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go func() {
			defer p.wg.Done()
			p.handle(conn)
			p.mu.Lock()
			delete(p.conns, conn)
			p.mu.Unlock()
		}()
	}
}

// Shutdown drains the proxy: it stops accepting connections, lets every
// handler finish the request it is serving, and waits up to ctx's
// deadline before force-closing stragglers. Returns nil on a clean drain
// and ctx's error when the deadline forced the close; either way the
// proxy is fully stopped on return.
func (p *Proxy) Shutdown(ctx context.Context) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	ln := p.ln
	p.draining.Store(true)
	close(p.drainCh)
	for c := range p.conns {
		// Fail reads parked waiting for the next request; a handler
		// mid-request is unaffected and exits after replying.
		_ = c.SetReadDeadline(time.Unix(1, 0))
	}
	p.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		p.mu.Lock()
		for c := range p.conns {
			_ = c.Close()
		}
		p.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close stops the proxy and waits for in-flight connections.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	ln := p.ln
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	p.wg.Wait()
	return err
}

// Stats returns how many queries the proxy blocked and passed.
func (p *Proxy) Stats() (blocked, passed uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blockedCount, p.passedCount
}

// Shed returns how many requests admission control rejected (zero unless
// WithAdmission is configured).
func (p *Proxy) Shed() uint64 { return p.shedCount.Load() }

// handle serves one client connection. Decoding runs in its own
// goroutine so a client that disconnects mid-query cancels the
// connection context — and with it the in-flight check and upstream round
// trip — instead of leaving them running for a caller that is gone.
func (p *Proxy) handle(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	reqs := make(chan *minidb.Request)
	go func() {
		for {
			req := new(minidb.Request)
			if err := dec.Decode(req); err != nil {
				// EOF, malformed stream, the connection closed under us, or
				// Shutdown slamming the read deadline: the client is done
				// sending. While draining, the in-flight request must still
				// finish, so the connection context stays live and the
				// handler exits through drainCh instead.
				if !p.draining.Load() {
					cancel()
				}
				return
			}
			select {
			case reqs <- req:
			case <-ctx.Done():
				return
			case <-p.drainCh:
				return
			}
		}
	}()
	for {
		select {
		case req := <-reqs:
			resp := p.process(ctx, req)
			if err := enc.Encode(resp); err != nil {
				return
			}
			if p.draining.Load() {
				return
			}
		case <-ctx.Done():
			return
		case <-p.drainCh:
			return
		}
	}
}

// process applies admission control and the guard, then forwards or
// blocks.
func (p *Proxy) process(ctx context.Context, req *minidb.Request) *minidb.Response {
	if err := p.gate.Acquire(ctx); err != nil {
		if errors.Is(err, guardrail.ErrOverloaded) {
			p.shedCount.Add(1)
			return &minidb.Response{Error: "overloaded: " + err.Error()}
		}
		return &minidb.Response{Error: fmt.Sprintf("check aborted: %v", err)}
	}
	defer p.gate.Release()
	inputs := make([]joza.Input, len(req.Inputs))
	for i, in := range req.Inputs {
		inputs[i] = joza.Input{Source: in.Source, Name: in.Name, Value: in.Value}
	}
	if err := p.guard.Authorize(ctx, joza.Request{Site: req.Site, Query: req.Query, Inputs: inputs}); err != nil {
		var ae *joza.AttackError
		if !errors.As(err, &ae) {
			// The check was canceled (client disconnect, shutdown): the
			// query was neither authorized nor blocked, and the client is
			// not listening for this response anyway.
			return &minidb.Response{Error: fmt.Sprintf("check aborted: %v", err)}
		}
		p.mu.Lock()
		p.blockedCount++
		p.mu.Unlock()
		if ae.Policy == joza.PolicyErrorVirtualize {
			// Error virtualization: look like an ordinary failed query.
			return &minidb.Response{Error: "query failed"}
		}
		return &minidb.Response{Blocked: true}
	}
	p.mu.Lock()
	p.passedCount++
	p.mu.Unlock()
	return p.backend.Execute(ctx, req)
}
