package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"joza/internal/core"
	"joza/internal/engine"
	"joza/internal/guardrail"
	"joza/internal/profile"
	"joza/internal/pti"
	"joza/internal/sqltoken"
	"joza/internal/trace"
)

// DefaultMaxRequestBytes caps the size of one wire request. A legitimate
// query never approaches it; a client that exceeds it has its connection
// dropped rather than letting it balloon the daemon's memory.
const DefaultMaxRequestBytes = 1 << 20

// DefaultMaxBatchItems caps how many items one "batch" request may carry.
// The frame-size limit already bounds total bytes; this bounds the number
// of admission passes and analyses a single frame can demand. An oversized
// batch is refused with a whole-batch error on a healthy stream.
const DefaultMaxBatchItems = 4096

// Bounds for the capped exponential backoff Serve applies to transient
// Accept failures (EMFILE, ECONNABORTED, ...).
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

// maxTimeoutMs caps the client-supplied TimeoutMs budget before it is
// multiplied into a time.Duration: a huge positive value would otherwise
// overflow into a negative (already-expired) or wrong deadline. No real
// client waits a day for a microsecond-scale analysis, so the clamp only
// ever bites hostile or corrupted frames.
const maxTimeoutMs = int64(24 * time.Hour / time.Millisecond)

// budgetContext derives the analysis context from a request's TimeoutMs
// budget: zero means no server-side bound, negative is already expired
// (the WithTimeout below yields a done context), and positive values are
// clamped to maxTimeoutMs so the multiplication cannot overflow.
func budgetContext(parent context.Context, timeoutMs int64) (context.Context, context.CancelFunc) {
	if timeoutMs == 0 {
		return parent, func() {}
	}
	if timeoutMs > maxTimeoutMs {
		timeoutMs = maxTimeoutMs
	}
	return context.WithTimeout(parent, time.Duration(timeoutMs)*time.Millisecond)
}

// prepareTimeout bounds the reload-plus-selftest work of one "prepare"
// verb, so a wedged source tree cannot park the rollout mutex forever.
const prepareTimeout = 30 * time.Second

// Server serves the daemon protocol over a listener: a wire front door
// over an engine.Engine whose snapshot holds the PTI and profile stages.
// Multiple server instances can share one analyzer (the paper's multiple
// coexisting daemons).
type Server struct {
	// eng runs every analysis. Its snapshot is the whole analysis
	// generation — analyzer, profiles and version — and swaps atomically,
	// so a check runs whole on the snapshot it loaded.
	eng  *engine.Engine
	gate *guardrail.Gate

	// initial and tracer configure eng while the options apply.
	initial *engine.Snapshot
	tracer  *trace.Tracer

	// Two-phase rollout state: a prepared-but-not-committed snapshot, the
	// callback that loads and builds it, and the test hook observing phase
	// transitions. rollMu serializes the rollout verbs.
	rollMu      sync.Mutex
	staged      *engine.Snapshot
	reloader    func(ctx context.Context) (*engine.Snapshot, error)
	rolloutHook func(phase string)

	readTimeout time.Duration
	maxRequest  int64
	maxBatch    int

	// Per-op wire counters, reported through Stats.
	analyzeOps atomic.Uint64
	batchOps   atomic.Uint64
	batchItems atomic.Uint64
	statsOps   atomic.Uint64
	tracesOps  atomic.Uint64
	errorOps   atomic.Uint64
	timeouts   atomic.Uint64

	// draining makes connection handlers stop picking up new requests;
	// set by Shutdown before it waits for in-flight work.
	draining atomic.Bool

	// done is closed by the first of Shutdown or Close; Serve's accept
	// backoff selects against it so stopping the server never waits out a
	// sleep mid connection-storm.
	done chan struct{}

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithReadTimeout drops connections that stay idle — or stall mid-request
// — longer than d between bytes of a request. Zero (the default) disables
// the deadline: a pipe to a co-located application process needs none,
// while a TCP daemon should set one so abandoned sockets can't accumulate.
func WithReadTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.readTimeout = d }
}

// WithMaxRequestBytes caps the size of one wire request (default
// DefaultMaxRequestBytes). Oversized requests break the connection.
func WithMaxRequestBytes(n int64) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxRequest = n
		}
	}
}

// WithMaxBatchItems caps the item count of one "batch" request (default
// DefaultMaxBatchItems). Larger batches are refused with a whole-batch
// error on a healthy stream rather than analyzed.
func WithMaxBatchItems(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxBatch = n
		}
	}
}

// WithAdmission bounds how many analyze requests run concurrently: at
// most limit in flight, with excess requests waiting up to maxWait — or
// the request's own remaining deadline budget, whichever is shorter — for
// a slot before being shed with an "overloaded" error on a healthy
// stream. Shed requests are counted in the stats snapshot's ShedRequests.
// limit <= 0 (the default) disables admission control.
func WithAdmission(limit int, maxWait time.Duration) ServerOption {
	return func(s *Server) { s.gate = guardrail.NewGate(limit, maxWait) }
}

// WithProfiles loads a query-skeleton profile store: analyze requests
// that carry a call site get a profile verdict on the reply. It replaces
// only the initial snapshot's profile stage, so it composes with
// WithSnapshot in either order.
func WithProfiles(st *profile.Store) ServerOption {
	return func(s *Server) {
		s.initial = withProfiles(s.initial, engine.ProfileStage{Store: st})
	}
}

// WithSnapshot replaces the initial snapshot whole (see NewSnapshot).
// Owners that version their snapshots construct with this, so the version
// labels exactly the state served; the NewServer analyzer is then unused,
// and the byte cap of snap's analyzer applies.
func WithSnapshot(snap *engine.Snapshot) ServerOption {
	return func(s *Server) { s.initial = snap }
}

// WithReloader wires the "prepare" verb to f: prepare calls f to load and
// build the next snapshot alongside the serving one, self-tests it, and
// stages it for a later "commit". Without a reloader the prepare verb is
// refused on the healthy stream.
func WithReloader(f func(ctx context.Context) (*engine.Snapshot, error)) ServerOption {
	return func(s *Server) { s.reloader = f }
}

// WithRolloutHook observes rollout phase transitions ("prepare" before
// the reload starts, "commit" before the staged snapshot swaps in). Fault
// injection uses it to widen the crash windows the two-phase protocol
// must survive.
func WithRolloutHook(f func(phase string)) ServerOption {
	return func(s *Server) { s.rolloutHook = f }
}

// WithTracer makes the server sample analyze requests into t's trace
// rings, serve them through the "traces" verb, attach the daemon-side span
// to sampled analyze replies, and feed the per-stage histograms reported
// by "stats". A nil tracer (the default) disables all of it at zero cost.
func WithTracer(t *trace.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// NewServer returns a daemon server over analyzer.
func NewServer(analyzer *pti.Cached, opts ...ServerOption) *Server {
	s := &Server{
		conns:      make(map[net.Conn]struct{}),
		initial:    NewSnapshot(analyzer, engine.ProfileStage{}, ""),
		maxRequest: DefaultMaxRequestBytes,
		maxBatch:   DefaultMaxBatchItems,
		done:       make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	s.eng = newEngine(s.initial, engine.WithTracer(s.tracer))
	s.initial = nil
	return s
}

// Stats returns the daemon's counter snapshot: checks and attacks served
// (PTI and profiles — NTI runs application-side), per-op wire activity,
// the analyzer's cache totals and per-shard activity, and analysis latency
// quantiles. Counters survive snapshot swaps; cache fields reflect the
// current analyzer.
func (s *Server) Stats() StatsReply {
	snap := s.eng.Collector().Snapshot()
	snap.DaemonAnalyzeOps = s.analyzeOps.Load()
	snap.DaemonBatchOps = s.batchOps.Load()
	snap.DaemonBatchItems = s.batchItems.Load()
	snap.DaemonStatsOps = s.statsOps.Load()
	snap.DaemonTracesOps = s.tracesOps.Load()
	snap.DaemonErrors = s.errorOps.Load()
	snap.DaemonTimeouts = s.timeouts.Load()
	s.eng.Snapshot().FillMetrics(&snap)
	return snap
}

// SetSnapshot atomically swaps the serving snapshot (see NewSnapshot);
// in-flight requests finish on the old one. Reload paths — jozad's watch
// loop, the commit verb — install whole generations through it, so a
// check can never mix halves of two.
func (s *Server) SetSnapshot(snap *engine.Snapshot) { s.eng.Swap(snap) }

// Version returns the serving snapshot's content-derived version ("" for
// unversioned state).
func (s *Server) Version() string { return s.eng.Snapshot().Version }

// Ready reports whether the server can answer analyze traffic: a snapshot
// with an analyzer is installed and the server is not draining. The obs
// /readyz probe fronts this — distinct from liveness, it flips false the
// moment a drain begins, before the server stops accepting.
func (s *Server) Ready() bool {
	return s.eng.Snapshot().PTI != nil && !s.draining.Load()
}

// Serve accepts connections until Close. Transient Accept failures —
// EMFILE under connection storms, ECONNABORTED from connections reset
// before accept — are retried with capped exponential backoff instead of
// killing the daemon; only listener closure ends the loop. Always returns
// a non-nil error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Close raced ahead of listener registration and could not reach
		// ln; close it here, or the kernel keeps completing handshakes into
		// a backlog nothing will ever accept and clients hang to their
		// timeout instead of failing fast.
		_ = ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return err
			}
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			// Sleep interruptibly: Shutdown and Close close s.done, so a
			// stop request issued mid connection-storm is not delayed by up
			// to a full backoff period.
			timer := time.NewTimer(backoff)
			select {
			case <-timer.C:
			case <-s.done:
				timer.Stop()
				return net.ErrClosed
			}
			continue
		}
		backoff = 0
		if !s.track(conn) {
			_ = conn.Close()
			return net.ErrClosed
		}
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

// ServeConn serves a single established connection until it closes. It is
// exported so a daemon can be run over a pre-connected pipe (the paper's
// anonymous-pipe, one-request lifetime mode). The first frame carrying
// no_tokens latches the connection token-free: every later analyze reply
// omits the token stream. A frame carrying binary is answered in JSON with
// the acknowledgement, and the connection then speaks binary frames.
func (s *Server) ServeConn(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	lr := &io.LimitedReader{R: conn, N: s.maxRequest}
	br := bufio.NewReader(lr)
	dec := json.NewDecoder(br)
	enc := json.NewEncoder(conn)
	noTokens := false
	for s.awaitRequest(conn) {
		// Reset the per-request byte budget. The buffered reader may hold
		// bytes already admitted under an earlier budget; the limit bounds
		// what one request can pull off the wire, not exact accounting.
		lr.N = s.maxRequest
		var req wireRequest
		if err := dec.Decode(&req); err != nil {
			s.readFailed(err)
			return
		}
		noTokens = noTokens || req.NoTokens || req.Binary
		resp := s.dispatch(req, !noTokens)
		resp.Binary = req.Binary
		var err error
		if noTokens {
			l := new(leanResponse)
			l.wrap(resp)
			err = enc.Encode(l)
		} else {
			err = enc.Encode(resp)
		}
		if err != nil {
			s.errorOps.Add(1)
			return
		}
		if req.Binary {
			// A client waits for the acknowledgement before its first
			// binary frame, so the JSON decoder can hold nothing past the
			// handshake frame but its newline.
			if rest, _ := io.ReadAll(dec.Buffered()); len(bytes.TrimSpace(rest)) == 0 {
				s.serveBinary(conn, lr, br)
			}
			return
		}
	}
}

// awaitRequest prepares conn for the next request: false when the server
// is draining, and the read deadline armed otherwise.
func (s *Server) awaitRequest(conn net.Conn) bool {
	if s.draining.Load() {
		return false
	}
	if s.readTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.readTimeout))
		// Re-check after arming the deadline: Shutdown slams every
		// connection's read deadline, and this one may just have been
		// overwritten by the line above.
		return !s.draining.Load()
	}
	return true
}

// readFailed counts a request read that ended the connection.
func (s *Server) readFailed(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		s.timeouts.Add(1)
	}
}

// dispatch answers one JSON request; withTokens puts the token stream on
// analyze replies.
func (s *Server) dispatch(req wireRequest, withTokens bool) wireResponse {
	var resp wireResponse
	switch req.Op {
	case "", "analyze":
		s.analyzeOps.Add(1)
		s.handleAnalyze(req, &resp, withTokens)
	case "batch":
		s.batchOps.Add(1)
		s.handleBatch(req, &resp, withTokens)
	case "stats":
		s.statsOps.Add(1)
		st := s.Stats()
		resp.Stats = &st
	case "traces":
		s.tracesOps.Add(1)
		d := s.eng.Tracer().Dump()
		resp.Traces = &d
	case "prepare":
		s.handlePrepare(&resp)
	case "commit":
		s.handleCommit(req, &resp)
	case "abort":
		s.handleAbort(&resp)
	default:
		s.errorOps.Add(1)
		resp.Err = fmt.Sprintf("unknown op %q", req.Op)
	}
	return resp
}

// serveBinary serves conn after the binary handshake, reading frames from
// the connection's buffered reader br. The declared body length is checked
// against the request cap before any of the body is read. Analyze and
// batch responses are appended straight from the verdicts into one
// per-connection buffer and sent with one Write; a malformed or oversized
// frame ends the connection.
func (s *Server) serveBinary(conn net.Conn, lr *io.LimitedReader, br *bufio.Reader) {
	var in, out []byte
	budget := s.maxRequest + frameHead + 1 // the body, its head and one skipped newline
	if budget < s.maxRequest {
		budget = math.MaxInt64
	}
	for s.awaitRequest(conn) {
		lr.N = budget
		kind, n, err := readFrameHead(br)
		if err != nil {
			s.readFailed(err)
			return
		}
		if n > uint64(s.maxRequest) {
			return
		}
		if in, err = readBody(br, in, n); err != nil {
			s.readFailed(err)
			return
		}
		out = beginFrame(out)
		switch kind {
		case frameAnalyze, frameBatch:
			req, err := parseRequest(kind, in)
			if err != nil {
				return
			}
			if kind == frameAnalyze {
				s.analyzeOps.Add(1)
				var v core.Verdict
				msg := s.analyze(req, &v)
				out = appendVerdictResponse(out, &v, msg)
			} else {
				s.batchOps.Add(1)
				out = s.appendBatch(out, req)
			}
		case frameJSON:
			var req wireRequest
			if json.Unmarshal(in, &req) != nil {
				return
			}
			var l leanResponse
			l.wrap(s.dispatch(req, false))
			b, err := json.Marshal(&l)
			if err != nil {
				s.errorOps.Add(1)
				return
			}
			out = append(out, b...)
		default:
			return
		}
		if _, err := conn.Write(finishFrame(out, kind)); err != nil {
			s.errorOps.Add(1)
			return
		}
	}
}

// parseDialect resolves a wire request's dialect field against the
// serving snapshot's: absent means MySQL (the protocol's original implicit
// dialect), and an unknown name or a mismatch returns a non-empty refusal
// that rides the healthy stream. The daemon never analyzes across dialects
// — boundary bytes (string escapes, quote kinds, placeholders, comments)
// mean different things under different dialects, so a cross-dialect
// verdict would be wrong, not approximate.
func parseDialect(wire string, serving sqltoken.Dialect) (sqltoken.Dialect, string) {
	d := sqltoken.MySQL
	if wire != "" {
		var err error
		if d, err = sqltoken.ParseDialect(wire); err != nil {
			return d, err.Error()
		}
	}
	if d != serving {
		return d, fmt.Sprintf("dialect mismatch: request is %s, daemon analyzes %s", d, serving)
	}
	return d, ""
}

// versionError is the refusal of a request pinned to a snapshot version the
// daemon does not serve.
func versionError(pinned, serving string) string {
	return fmt.Sprintf("version mismatch: request pinned to snapshot %q, daemon serves %q", pinned, serving)
}

// analyze runs one analyze request into *v: the wire refusals (dialect,
// version pin), the deadline budget, admission, then the engine check.
// The engine owns the rest — budgets, panic containment, profiles,
// metrics and tracing. A failure returns a non-empty refusal, which rides
// back on the still-healthy stream — an overloaded, expired or
// cross-dialect request costs one reply, not the connection — and leaves
// *v meaningless.
func (s *Server) analyze(req wireRequest, v *core.Verdict) string {
	snap := s.eng.Snapshot()
	d, msg := parseDialect(req.Dialect, snap.Dialect)
	if msg == "" && req.Version != "" && req.Version != snap.Version {
		// The client pinned the check to a policy generation this daemon
		// is not serving (mid-rollout skew, or a garbage version from a
		// corrupted frame). Answering from the wrong generation would be
		// wrong, not approximate, so the pin is refused on the healthy
		// stream — per item inside a batch — and the connection lives on.
		msg = versionError(req.Version, snap.Version)
	}
	if msg != "" {
		s.errorOps.Add(1)
		return msg
	}
	// Honor the client's propagated deadline budget: bound the analysis
	// with a matching context so server-side work the client has stopped
	// waiting for is abandoned, not finished. A negative budget arrives
	// already expired; an absurdly large one is clamped before the
	// millisecond multiplication so it cannot overflow into an expired
	// (or wrong) deadline.
	ctx, cancel := budgetContext(context.Background(), req.TimeoutMs)
	defer cancel()
	if err := s.gate.Acquire(ctx); err != nil {
		if errors.Is(err, guardrail.ErrOverloaded) {
			s.eng.Collector().RecordShed()
			return "overloaded: " + err.Error()
		}
		s.timeouts.Add(1)
		return err.Error()
	}
	defer s.gate.Release()
	if err := s.eng.CheckInto(ctx, engine.Request{Query: req.Query, Site: req.Site, Dialect: d}, v); err != nil {
		// The budget expired mid-analysis: report it like the client-side
		// deadline it mirrors, with no check recorded.
		s.timeouts.Add(1)
		return err.Error()
	}
	if req.Version != "" && v.Version != req.Version {
		// A commit landed between the pin check and the analysis: the
		// verdict carries the version of the snapshot that produced it, so
		// a pinned request is still never answered from another one.
		s.errorOps.Add(1)
		return versionError(req.Version, v.Version)
	}
	return ""
}

// handleAnalyze answers one JSON analyze request. withTokens puts the
// token stream on the reply, for a connection that has not latched
// no_tokens.
func (s *Server) handleAnalyze(req wireRequest, resp *wireResponse, withTokens bool) {
	var v core.Verdict
	if msg := s.analyze(req, &v); msg != "" {
		resp.Err = msg
		return
	}
	reply := replyFor(&v, req.Site)
	if withTokens && !v.Failed {
		// A reply the failure mode produced carries no tokens: the query
		// may be the oversized one the cap refused unlexed. The analysis
		// accepted the request's dialect, so it parses.
		d, _ := parseDialect(req.Dialect, sqltoken.MySQL)
		toks := d.Lex(req.Query)
		reply.Tokens = make([]TokenJSON, len(toks))
		for i, t := range toks {
			reply.Tokens[i] = toTokenJSON(t)
		}
	}
	resp.Reply = reply
}

// admitBatch refuses a batch request that is empty or above the item cap,
// and otherwise defaults the frame's dialect and version pin onto its
// items, so a client stamps one field per frame instead of one per item;
// an item can still name its own (and be refused individually).
func (s *Server) admitBatch(req wireRequest) string {
	if len(req.Batch) == 0 {
		s.errorOps.Add(1)
		return "empty batch"
	}
	if len(req.Batch) > s.maxBatch {
		s.errorOps.Add(1)
		return fmt.Sprintf("batch of %d items exceeds the %d-item cap", len(req.Batch), s.maxBatch)
	}
	s.batchItems.Add(uint64(len(req.Batch)))
	for i := range req.Batch {
		item := &req.Batch[i]
		if item.Dialect == "" {
			item.Dialect = req.Dialect
		}
		if item.Version == "" {
			item.Version = req.Version
		}
	}
	return ""
}

// handleBatch runs one JSON "batch" request: every item is an analyze
// request handled exactly as a standalone one — admission charged per
// item, the item's own TimeoutMs bounding its analysis, failures recorded
// per item — and the reply carries one response per item in order. One
// poisoned item (expired budget, shed, over budget) costs only its own
// slot; siblings and the connection are unaffected. A batch above the item
// cap is refused whole, on the still-healthy stream.
func (s *Server) handleBatch(req wireRequest, resp *wireResponse, withTokens bool) {
	if resp.Err = s.admitBatch(req); resp.Err != "" {
		return
	}
	resp.Batch = make([]wireResponse, len(req.Batch))
	for i, item := range req.Batch {
		switch item.Op {
		case "", "analyze":
			s.analyzeOps.Add(1)
			s.handleAnalyze(item, &resp.Batch[i], withTokens)
		default:
			// Nested batches and the control verbs have no per-item merge
			// semantics; refusing them item-locally keeps the rest of the
			// batch alive.
			s.errorOps.Add(1)
			resp.Batch[i].Err = fmt.Sprintf("op %q not allowed in a batch", item.Op)
		}
	}
}

// appendBatch appends the binary response to a batch frame, whose items
// are all analyze requests: the item count and one response per item, or
// a zero count and the whole-batch refusal.
func (s *Server) appendBatch(dst []byte, req wireRequest) []byte {
	if msg := s.admitBatch(req); msg != "" {
		return appendString(append(dst, 0), msg)
	}
	dst = binary.AppendUvarint(dst, uint64(len(req.Batch)))
	for _, item := range req.Batch {
		s.analyzeOps.Add(1)
		var v core.Verdict
		msg := s.analyze(item, &v)
		dst = appendVerdictResponse(dst, &v, msg)
	}
	return dst
}

// handlePrepare runs phase one of the two-phase rollout: load and build
// the next generation's snapshot through the configured reloader,
// self-test it, and stage it without touching what is being served. A
// failed prepare leaves both the serving snapshot and any previously
// staged one intact, and the failure rides the
// healthy stream. Re-preparing replaces the staged snapshot — prepare is
// idempotent from the coordinator's point of view.
func (s *Server) handlePrepare(resp *wireResponse) {
	s.rollMu.Lock()
	defer s.rollMu.Unlock()
	if s.reloader == nil {
		s.errorOps.Add(1)
		resp.Err = "prepare: daemon has no reloader configured"
		return
	}
	if s.rolloutHook != nil {
		s.rolloutHook("prepare")
	}
	ctx, cancel := context.WithTimeout(context.Background(), prepareTimeout)
	defer cancel()
	snap, err := s.reloader(ctx)
	if err != nil {
		s.errorOps.Add(1)
		resp.Err = "prepare: " + err.Error()
		return
	}
	if err := selftest(ctx, snap); err != nil {
		s.errorOps.Add(1)
		resp.Err = "prepare selftest: " + err.Error()
		return
	}
	s.staged = snap
	resp.Rollout = &RolloutReply{State: "staged", Version: snap.Version}
}

// selftest proves a staged snapshot can actually serve before it is
// reported ready: a probe check on a throwaway engine over it must complete
// with no stage panicking or refusing it, and the profile store must match
// the snapshot's dialect. Catching a corrupt store or broken analyzer here
// — while the old generation still serves — is the whole point of the
// prepare phase.
func selftest(ctx context.Context, snap *engine.Snapshot) error {
	if snap == nil || snap.PTI == nil {
		return errors.New("staged snapshot has no analyzer")
	}
	if snap.Profiles != nil {
		if err := snap.Profiles.ForDialect(snap.Dialect); err != nil {
			return err
		}
	}
	probe := engine.New(snap)
	v, err := probe.Check(ctx, engine.Request{Query: "SELECT 1", Dialect: snap.Dialect})
	if err != nil {
		return fmt.Errorf("probe analysis: %w", err)
	}
	if m := probe.Collector().Snapshot(); m.PanicsRecovered+m.OverBudgetChecks > 0 {
		return fmt.Errorf("probe analysis failed: %v", v.Reasons())
	}
	return nil
}

// handleCommit runs phase two: swap the staged snapshot in as the serving
// one. A request may pin the expected version; a pin that does not match
// the staged snapshot is refused on the healthy stream with the staged
// snapshot kept — the coordinator decides whether to re-prepare or abort.
// With nothing staged, commit is refused (a crash-recovered daemon lost
// its staged state with the process, and the coordinator must re-prepare).
func (s *Server) handleCommit(req wireRequest, resp *wireResponse) {
	s.rollMu.Lock()
	defer s.rollMu.Unlock()
	if s.staged == nil {
		s.errorOps.Add(1)
		resp.Err = "commit: nothing staged"
		return
	}
	if req.Version != "" && req.Version != s.staged.Version {
		s.errorOps.Add(1)
		resp.Err = fmt.Sprintf("commit: staged snapshot is %q, not %q", s.staged.Version, req.Version)
		return
	}
	if s.rolloutHook != nil {
		s.rolloutHook("commit")
	}
	snap := s.staged
	s.staged = nil
	s.SetSnapshot(snap)
	resp.Rollout = &RolloutReply{State: "committed", Version: snap.Version}
}

// handleAbort discards any staged snapshot. Idempotent: aborting with
// nothing staged succeeds, so a coordinator cleaning up after a partial
// prepare can abort the whole fleet without tracking who staged what.
func (s *Server) handleAbort(resp *wireResponse) {
	s.rollMu.Lock()
	s.staged = nil
	s.rollMu.Unlock()
	resp.Rollout = &RolloutReply{State: "aborted"}
}

// Shutdown drains the server: it stops accepting connections, lets each
// connection finish the request it is serving (handlers stop picking up
// new ones, and reads blocked waiting for the next request are failed
// immediately), and waits for them up to ctx's deadline. Connections
// still busy when ctx expires are force-closed. Returns nil on a clean
// drain and ctx's error when the deadline forced the close; either way
// the server is fully stopped on return.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	ln := s.ln
	s.draining.Store(true)
	for c := range s.conns {
		// Fail reads parked on an idle connection; a handler mid-request is
		// unaffected (only its next read would see this) and exits at the
		// loop-top draining check after replying.
		_ = c.SetReadDeadline(time.Unix(1, 0))
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			_ = c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close stops the server and waits for in-flight connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	ln := s.ln
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}
