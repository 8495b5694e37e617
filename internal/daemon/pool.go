package daemon

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"joza/internal/guardrail"
	"joza/internal/sqltoken"
)

// ErrUnavailable wraps the last transport failure after a pooled request
// has exhausted its reconnection attempts: the daemon is down or
// unreachable. HybridClient's degradation policy decides what a check
// does when it surfaces.
var ErrUnavailable = errors.New("daemon: unavailable")

// ErrPoolClosed is returned for requests issued after Pool.Close.
var ErrPoolClosed = errors.New("daemon: pool closed")

// PoolConfig tunes a connection pool. The zero value selects the default
// noted on each field.
type PoolConfig struct {
	// Size is the number of pooled connections — the pool's request
	// concurrency (default 4). Requests beyond Size in flight wait for a
	// free connection instead of serializing on a single one.
	Size int
	// Timeout bounds one request round trip, send to receive (default
	// 2s); a connection re-arms its deadline lazily, so a round trip may
	// run up to an eighth longer. A connection that misses its deadline
	// is discarded: its reply may still arrive later, and a later request
	// must never read it.
	Timeout time.Duration
	// DialTimeout bounds one dial (default: Timeout).
	DialTimeout time.Duration
	// MaxAttempts is how many connections one request may try — the
	// first plus replacements — before reporting ErrUnavailable
	// (default 3).
	MaxAttempts int
	// BackoffMin and BackoffMax bound the jittered exponential delay
	// between reconnection attempts (defaults 10ms and 1s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// BreakerThreshold enables a client-side circuit breaker layered under
	// the per-request retries: after that many consecutive requests end
	// unavailable, further requests fail immediately (wrapped in
	// ErrUnavailable, so the degradation policy applies) instead of each
	// burning MaxAttempts dial timeouts against a dead daemon. After
	// BreakerCooldown one probe request is let through; its outcome closes
	// or re-opens the breaker. Zero (the default) disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before probing
	// (default 1s).
	BreakerCooldown time.Duration
	// BatchSize opts into the client-side micro-batcher: concurrent
	// AnalyzeSiteContext calls are coalesced into one "batch" wire frame
	// of up to this many items, amortizing the round trip across them.
	// Values below 2 (the default) leave every call its own round trip,
	// and values above MaxBatchItems are clamped to it, so no batch has
	// more items than a server accepts. A batch also flushes before its
	// frame would pass DefaultMaxRequestBytes, and a call too large to
	// share a frame is sent on its own.
	BatchSize int
	// BatchLinger is how long the first call in a forming batch waits for
	// companions before a partial batch is flushed (default 500µs). Only
	// meaningful with BatchSize; it is the latency ceiling batching may
	// add to an isolated call.
	BatchLinger time.Duration
	// Dialect is the SQL dialect stamped on the pool's analyze and batch
	// frames, so a daemon serving a different dialect refuses them instead
	// of mis-lexing. The zero value is MySQL, which is omitted from the
	// wire, where an absent dialect means MySQL.
	Dialect sqltoken.Dialect
}

func (cfg PoolConfig) withDefaults() PoolConfig {
	if cfg.Size <= 0 {
		cfg.Size = 4
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = cfg.Timeout
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 10 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.BackoffMax < cfg.BackoffMin {
		cfg.BackoffMax = cfg.BackoffMin
	}
	if cfg.BatchSize > MaxBatchItems {
		cfg.BatchSize = MaxBatchItems
	}
	return cfg
}

// Pool is the Remote transport, over a fixed-size set of connections:
// concurrent Analyze calls proceed in parallel instead of serializing on
// one connection, every round trip carries a deadline, and failed
// connections are replaced with jittered exponential backoff. A pool of
// Size 1 is the paper's one-pipe mode. Dialing is lazy, so a pool can be
// built while the daemon is still coming up — and a daemon restart heals
// on the next request instead of poisoning the transport.
type Pool struct {
	dial func() (net.Conn, error)
	cfg  PoolConfig
	// slots holds the pool's connections; a nil entry is an empty slot
	// dialed on first use or after its connection broke.
	slots   chan *client
	done    chan struct{}
	once    sync.Once
	breaker *guardrail.Breaker
	// batch is the opt-in micro-batcher (nil unless cfg.BatchSize >= 2);
	// when set, AnalyzeSiteContext coalesces through it.
	batch *batcher

	dials     atomic.Uint64
	exhausted atomic.Uint64
}

var _ Transport = (*Pool)(nil)

// DialPool returns a pool of connections to a daemon at a TCP address.
func DialPool(addr string, cfg PoolConfig) *Pool {
	c := cfg.withDefaults()
	return NewPool(func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, c.DialTimeout)
	}, c)
}

// NewPool builds a pool over an arbitrary dialer (pipes, unix sockets,
// test fault injectors).
func NewPool(dial func() (net.Conn, error), cfg PoolConfig) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		dial:    dial,
		cfg:     cfg,
		slots:   make(chan *client, cfg.Size),
		done:    make(chan struct{}),
		breaker: guardrail.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
	}
	for i := 0; i < cfg.Size; i++ {
		p.slots <- nil
	}
	if cfg.BatchSize >= 2 {
		p.batch = newBatcher(p, cfg.BatchSize, cfg.BatchLinger)
	}
	return p
}

// Dials returns how many connections the pool has established; a value
// above Size means broken connections have been replaced.
func (p *Pool) Dials() uint64 { return p.dials.Load() }

// Exhausted returns how many requests gave up after MaxAttempts
// connections failed (each surfaced as ErrUnavailable).
func (p *Pool) Exhausted() uint64 { return p.exhausted.Load() }

// do runs one request through the circuit breaker and the connection
// pool, reporting the outcome back to the breaker: success or a healthy-
// stream daemon error closes it, an unavailable transport extends the
// failure streak, and a context or pool-closed abort is evidence of
// neither.
func (p *Pool) do(ctx context.Context, req wireRequest) (wireResponse, error) {
	if err := p.breaker.Allow(); err != nil {
		return wireResponse{}, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	resp, err := p.roundTrips(ctx, req)
	switch {
	case err == nil:
		p.breaker.Success()
	case errors.Is(err, ErrUnavailable):
		p.breaker.Failure()
	case errors.Is(err, ErrPoolClosed), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		p.breaker.Cancel()
	default:
		// A daemon-level error on a healthy stream (unknown verb, shed by
		// admission control, over budget): the transport itself works.
		p.breaker.Success()
	}
	return resp, err
}

// BreakerStats snapshots the pool's circuit breaker ("disabled" when
// BreakerThreshold is zero). HybridClient folds it into Metrics.
func (p *Pool) BreakerStats() guardrail.BreakerStats { return p.breaker.Stats() }

// roundTrips runs one request over a pooled connection, replacing broken
// connections with backoff, up to MaxAttempts. ctx bounds the whole
// request: waiting for a free slot, each round trip, and the backoff
// sleeps between attempts all abort with ctx's error.
func (p *Pool) roundTrips(ctx context.Context, req wireRequest) (wireResponse, error) {
	var slot *client
	select {
	case slot = <-p.slots:
	case <-p.done:
		return wireResponse{}, ErrPoolClosed
	case <-ctx.Done():
		return wireResponse{}, ctx.Err()
	}
	// Always return the slot — nil after a failure, so the next request
	// redials lazily. Close drains exactly Size slots and closes whatever
	// connections it receives, so a request finishing late hands its
	// connection to Close rather than leaking it.
	defer func() { p.slots <- slot }()
	var lastErr error
	backoff := p.cfg.BackoffMin
	for attempt := 0; attempt < p.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(jitter(backoff)):
			case <-p.done:
				return wireResponse{}, ErrPoolClosed
			case <-ctx.Done():
				return wireResponse{}, ctx.Err()
			}
			if backoff *= 2; backoff > p.cfg.BackoffMax {
				backoff = p.cfg.BackoffMax
			}
		}
		if slot == nil || slot.Broken() {
			conn, err := p.dial()
			if err != nil {
				slot = nil
				lastErr = err
				continue
			}
			p.dials.Add(1)
			slot = newClient(conn, p.cfg.Timeout)
		}
		resp, err := slot.roundTrip(ctx, req)
		if err == nil {
			return resp, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			// The caller's context ended; replacing the connection and
			// retrying would only serve a request nobody waits for.
			return wireResponse{}, cerr
		}
		lastErr = err
		if !slot.Broken() {
			// A daemon-level error on a healthy stream (e.g. an unknown
			// verb): not a transport fault, so retrying won't change it.
			return wireResponse{}, err
		}
		slot = nil
	}
	p.exhausted.Add(1)
	return wireResponse{}, fmt.Errorf("%w after %d attempts: %v", ErrUnavailable, p.cfg.MaxAttempts, lastErr)
}

// jitter spreads a retry delay uniformly over [d/2, d) so clients that
// lost their connections together don't reconnect in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + rand.N(half)
}

// AnalyzeSiteContext implements Transport: ctx bounds slot acquisition,
// the round trip and retry backoff, and the remaining deadline budget is
// forwarded to the server in the request, with the call site. With
// BatchSize configured, the call instead joins the micro-batcher:
// concurrent calls coalesce into one batch frame (the site rides in the
// batch item), ctx still bounds this caller's wait, and the item's budget
// still rides to the server.
func (p *Pool) AnalyzeSiteContext(ctx context.Context, site, query string) (*AnalysisReply, error) {
	return p.analyzeReq(ctx, withTimeoutBudget(ctx, wireRequest{Query: query, Site: site, Dialect: wireDialect(p.cfg.Dialect)}))
}

// analyzeReq sends req, through the micro-batcher when there is one. A
// request too large to share a batch frame goes alone, so if a server
// refuses it, no other call fails with it.
func (p *Pool) analyzeReq(ctx context.Context, req wireRequest) (*AnalysisReply, error) {
	if p.batch != nil {
		if n := batchItemBytes(&req); n <= maxBatchBytes {
			return p.batch.analyze(ctx, req, n)
		}
	}
	resp, err := p.do(ctx, req)
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
func (p *Pool) Prepare(ctx context.Context) (*RolloutReply, error) {
	return p.rolloutReq(ctx, wireRequest{Op: "prepare"})
}

// Commit drives phase two: the daemon swaps its staged snapshot in as the
// serving one. A non-empty version pins which staged snapshot may swap;
// mismatches are refused with the staged state kept.
func (p *Pool) Commit(ctx context.Context, version string) (*RolloutReply, error) {
	return p.rolloutReq(ctx, wireRequest{Op: "commit", Version: version})
}

// Abort discards the daemon's staged snapshot, if any. Idempotent.
func (p *Pool) Abort(ctx context.Context) (*RolloutReply, error) {
	return p.rolloutReq(ctx, wireRequest{Op: "abort"})
}

func (p *Pool) rolloutReq(ctx context.Context, req wireRequest) (*RolloutReply, error) {
	resp, err := p.do(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.Rollout == nil {
		return nil, fmt.Errorf("daemon: %s verb returned no payload", req.Op)
	}
	return resp.Rollout, nil
}

// Stats requests the daemon's counter snapshot via the "stats" verb.
func (p *Pool) Stats() (*StatsReply, error) {
	resp, err := p.do(context.Background(), wireRequest{Op: "stats"})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, errors.New("daemon: stats verb returned no payload")
	}
	return resp.Stats, nil
}

// Traces requests the daemon's trace rings via the "traces" verb.
func (p *Pool) Traces() (*TracesReply, error) {
	resp, err := p.do(context.Background(), wireRequest{Op: "traces"})
	if err != nil {
		return nil, err
	}
	if resp.Traces == nil {
		return nil, errors.New("daemon: traces verb returned no payload")
	}
	return resp.Traces, nil
}

// Close implements Transport: it fails pending waiters, then reclaims and
// closes all Size connections, waiting for in-flight requests to hand
// theirs back (each is bounded by its deadline and aborts its backoff
// sleeps once the pool is closed).
func (p *Pool) Close() error {
	var err error
	p.once.Do(func() {
		close(p.done)
		for i := 0; i < p.cfg.Size; i++ {
			if c := <-p.slots; c != nil {
				if cerr := c.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}
		}
	})
	return err
}
