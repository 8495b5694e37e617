package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"joza/internal/pti"
	"joza/internal/sqltoken"
)

// ErrBroken marks a client whose connection failed mid-exchange. After
// any encode or decode error the JSON stream may be desynced — a stale or
// partial response could still be in flight — so the connection is closed
// and every later call fails with this error rather than risk returning
// another request's reply. A Pool replaces broken connections; a bare
// Client stays broken until discarded.
var ErrBroken = errors.New("daemon: connection broken")

// Client is the Remote transport over a single connection: it speaks the
// daemon protocol and serializes concurrent requests. Production
// deployments wrap connections in a Pool instead; a bare Client is the
// paper's one-pipe mode.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	enc     *json.Encoder
	dec     *json.Decoder
	timeout time.Duration
	dialect sqltoken.Dialect
	err     error // sticky; set on the first I/O failure or Close
	// latched records that an analyze or batch frame carrying no_tokens
	// and binary has been sent on this connection, so the server already
	// serves its analyze frames and later frames need not repeat the flags.
	latched bool
	// binary records the server's acknowledgement: every later frame is a
	// binary frame, built in out and read from br into in.
	binary  bool
	in, out []byte
}

var _ Transport = (*Client)(nil)

// Dial connects to a daemon at a TCP address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("daemon dial: %w", err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (e.g. one side of net.Pipe,
// the analogue of the paper's anonymous pipes).
func NewClient(conn net.Conn) *Client {
	br := bufio.NewReader(conn)
	return &Client{
		conn: conn,
		br:   br,
		enc:  json.NewEncoder(conn),
		dec:  json.NewDecoder(br),
	}
}

// SetTimeout bounds each request round trip (send to receive). A request
// that misses its deadline breaks the connection: the reply may still
// arrive later, and a desynced stream must never be read again. Zero (the
// default) disables the deadline.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	if d <= 0 && c.timeout > 0 {
		// Round trips leave the deadline armed while a timeout is set;
		// without one, no later round trip would replace it.
		_ = c.conn.SetDeadline(time.Time{})
	}
	c.timeout = d
	c.mu.Unlock()
}

// SetDialect stamps the given SQL dialect on every analyze and batch frame
// this client sends, so a daemon serving a different dialect refuses the
// request instead of mis-lexing it. MySQL (the default) is omitted from
// the wire, keeping frames byte-identical to the pre-dialect protocol.
func (c *Client) SetDialect(d sqltoken.Dialect) {
	c.mu.Lock()
	c.dialect = d
	c.mu.Unlock()
}

// wireDialect returns the wire spelling of the client's configured dialect.
func (c *Client) wireDialect() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return wireDialect(c.dialect)
}

// Broken reports whether the connection has failed and the client is
// permanently unusable.
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// roundTrip sends one request and reads its response, marking the
// connection broken on any I/O error. The connection's first analyze or
// batch frame carries no_tokens and binary, which a current server
// requires before it analyzes, and a server that acknowledges binary
// switches both ends to binary frames. ctx bounds the exchange: its
// deadline (when earlier than the client timeout) becomes the connection
// deadline, and cancellation slams the connection so a blocked read or
// write returns immediately. An already-done ctx fails before any I/O and
// leaves the connection healthy.
func (c *Client) roundTrip(ctx context.Context, req wireRequest) (wireResponse, error) {
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
	var deadline time.Time
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if !deadline.IsZero() {
		_ = c.conn.SetDeadline(deadline)
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
				// the deadline right now. Wait it out, then clear — without
				// this, a timeout-less client would keep the poisoned
				// deadline and spuriously break a healthy connection on its
				// next request.
				<-slammed
			} else if c.timeout > 0 {
				return // the next round trip re-arms the deadline
			}
			_ = c.conn.SetDeadline(time.Time{})
		}()
	} else if !deadline.IsZero() && c.timeout <= 0 {
		// Only ctx set this deadline, and the next round trip may set
		// none. A client with a timeout leaves its deadline armed, since
		// every round trip re-arms it before any I/O: one SetDeadline
		// call per exchange instead of two.
		defer func() { _ = c.conn.SetDeadline(time.Time{}) }()
	}
	var resp wireResponse
	var err error
	if c.binary {
		resp, err = c.binaryRoundTrip(ctx, &req)
	} else {
		resp, err = c.jsonRoundTrip(ctx, req)
	}
	if err != nil {
		return wireResponse{}, err
	}
	if resp.Err != "" {
		return wireResponse{}, fmt.Errorf("daemon: %s", resp.Err)
	}
	return resp, nil
}

// jsonRoundTrip sends req as one JSON frame and reads the JSON reply,
// asking for binary frames on the connection's first analyze or batch
// frame and switching to them when the reply acknowledges that. Must be
// called with mu held.
func (c *Client) jsonRoundTrip(ctx context.Context, req wireRequest) (wireResponse, error) {
	if !c.latched && (req.Op == "" || req.Op == "analyze" || req.Op == "batch") {
		req.NoTokens, req.Binary = true, true
		c.latched = true
	}
	if err := c.enc.Encode(req); err != nil {
		return wireResponse{}, c.broke("send", ctxCause(ctx, err))
	}
	var resp wireResponse
	if err := c.dec.Decode(&resp); err != nil {
		return wireResponse{}, c.broke("recv", ctxCause(ctx, err))
	}
	if resp.Binary {
		// The server has switched. It sends nothing unasked, so the
		// decoder can hold nothing past the acknowledgement but its
		// newline, which the first binary read skips if it is still on
		// the wire.
		if rest, _ := io.ReadAll(c.dec.Buffered()); len(bytes.TrimSpace(rest)) != 0 {
			return wireResponse{}, c.broke("recv", errors.New("unexpected bytes behind the binary acknowledgement"))
		}
		c.binary = true
		c.enc, c.dec = nil, nil // the JSON codec is done with this connection
	}
	return resp, nil
}

// binaryRoundTrip sends req as one binary frame and reads its reply frame,
// which must be of the same kind. Must be called with mu held.
func (c *Client) binaryRoundTrip(ctx context.Context, req *wireRequest) (wireResponse, error) {
	kind := requestKind(req)
	c.out = beginFrame(c.out)
	switch kind {
	case frameAnalyze:
		c.out = appendRequest(c.out, req)
	case frameBatch:
		c.out = appendBatchRequest(c.out, req)
	default:
		b, err := json.Marshal(*req)
		if err != nil {
			return wireResponse{}, err
		}
		c.out = append(c.out, b...)
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
func (c *Client) broke(stage string, cause error) error {
	c.err = fmt.Errorf("%w (%s: %v)", ErrBroken, stage, cause)
	_ = c.conn.Close()
	return fmt.Errorf("daemon %s: %w", stage, cause)
}

// AnalyzeSiteContext implements Transport: the round trip observes ctx,
// and the remaining deadline budget rides in the request so the server
// abandons work the client will no longer wait for. A non-empty site
// rides in the request too; old servers ignore it and reply without a
// profile verdict.
func (c *Client) AnalyzeSiteContext(ctx context.Context, site, query string) (*AnalysisReply, error) {
	resp, err := c.roundTrip(ctx, withTimeoutBudget(ctx, wireRequest{Query: query, Site: site, Dialect: c.wireDialect()}))
	if err != nil {
		return nil, err
	}
	if resp.Reply == nil {
		return nil, errors.New("daemon: analyze verb returned no payload")
	}
	return resp.Reply, nil
}

// Prepare drives phase one of the two-phase rollout: the daemon loads,
// builds and self-tests its next snapshot generation without swapping it
// in, and reports the staged version.
func (c *Client) Prepare(ctx context.Context) (*RolloutReply, error) {
	resp, err := c.roundTrip(ctx, wireRequest{Op: "prepare"})
	if err != nil {
		return nil, err
	}
	if resp.Rollout == nil {
		return nil, errors.New("daemon: prepare verb returned no payload")
	}
	return resp.Rollout, nil
}

// Commit drives phase two: the daemon swaps its staged snapshot in as the
// serving one. A non-empty version pins which staged snapshot may swap;
// mismatches are refused with the staged state kept.
func (c *Client) Commit(ctx context.Context, version string) (*RolloutReply, error) {
	resp, err := c.roundTrip(ctx, wireRequest{Op: "commit", Version: version})
	if err != nil {
		return nil, err
	}
	if resp.Rollout == nil {
		return nil, errors.New("daemon: commit verb returned no payload")
	}
	return resp.Rollout, nil
}

// Abort discards the daemon's staged snapshot, if any. Idempotent.
func (c *Client) Abort(ctx context.Context) (*RolloutReply, error) {
	resp, err := c.roundTrip(ctx, wireRequest{Op: "abort"})
	if err != nil {
		return nil, err
	}
	if resp.Rollout == nil {
		return nil, errors.New("daemon: abort verb returned no payload")
	}
	return resp.Rollout, nil
}

// Stats requests the daemon's counter snapshot via the "stats" verb.
func (c *Client) Stats() (*StatsReply, error) {
	resp, err := c.roundTrip(context.Background(), wireRequest{Op: "stats"})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, errors.New("daemon: stats verb returned no payload")
	}
	return resp.Stats, nil
}

// Traces requests the daemon's trace rings via the "traces" verb.
func (c *Client) Traces() (*TracesReply, error) {
	resp, err := c.roundTrip(context.Background(), wireRequest{Op: "traces"})
	if err != nil {
		return nil, err
	}
	if resp.Traces == nil {
		return nil, errors.New("daemon: traces verb returned no payload")
	}
	return resp.Traces, nil
}

// Close implements Transport. The client is unusable afterwards.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.err == nil {
		c.err = net.ErrClosed
	}
	c.mu.Unlock()
	return c.conn.Close()
}

// SpawnPipe starts a daemon over an in-memory pipe — the analogue of
// launching the daemon on demand and talking over anonymous pipes. The
// returned stop function shuts the daemon goroutine down.
func SpawnPipe(analyzer *pti.Cached) (client *Client, stop func()) {
	clientSide, serverSide := net.Pipe()
	srv := NewServer(analyzer)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	c := NewClient(clientSide)
	return c, func() {
		_ = c.Close()
		_ = serverSide.Close()
		<-done
	}
}
