package daemon

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// This file implements the client side of the wire protocol's "batch"
// verb: explicit AnalyzeBatch calls on Client and Pool, and the opt-in
// micro-batcher that transparently coalesces concurrent AnalyzeSiteContext
// calls into batch frames (see PoolConfig.BatchSize). Batching amortizes
// the per-frame round trip — the dominant cost of the remote deployment
// once the analysis itself is cache-hit microseconds — across N checks.

// batchRequest builds the wire frame for one batch of queries, stamping
// ctx's remaining deadline budget on every item so the server bounds each
// analysis the same way it would a standalone request. The dialect rides
// once on the outer frame (empty for MySQL) and defaults into every item
// server-side.
func batchRequest(ctx context.Context, dialect string, queries []string) wireRequest {
	req := wireRequest{Op: "batch", Dialect: dialect, Batch: make([]wireRequest, len(queries))}
	for i, q := range queries {
		req.Batch[i] = withTimeoutBudget(ctx, wireRequest{Query: q})
	}
	return req
}

// batchResults converts a batch response into per-item results. A reply
// whose item count does not match the request is a protocol violation by
// the server: the frame itself was well-formed (the stream stays in sync),
// but no item outcome can be trusted, so the whole call fails.
func batchResults(resp wireResponse, want int) ([]BatchResult, error) {
	if len(resp.Batch) != want {
		return nil, fmt.Errorf("daemon: batch reply has %d items, want %d", len(resp.Batch), want)
	}
	out := make([]BatchResult, want)
	for i := range resp.Batch {
		item := &resp.Batch[i]
		switch {
		case item.Err != "":
			out[i].Err = fmt.Errorf("daemon: %s", item.Err)
		case item.Reply == nil:
			out[i].Err = errors.New("daemon: batch item returned no payload")
		default:
			out[i].Reply = item.Reply
		}
	}
	return out, nil
}

// AnalyzeBatch analyzes queries in one wire round trip. The returned slice
// has one result per query, in order; per-item failures (expired budget,
// shed by admission control, over budget) ride in BatchResult.Err while
// their siblings carry replies. A transport or framing failure fails the
// whole call instead.
func (c *Client) AnalyzeBatch(ctx context.Context, queries []string) ([]BatchResult, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	resp, err := c.roundTrip(ctx, batchRequest(ctx, c.wireDialect(), queries))
	if err != nil {
		return nil, err
	}
	return batchResults(resp, len(queries))
}

// AnalyzeBatch analyzes queries in one pooled wire round trip, with the
// same per-item semantics as Client.AnalyzeBatch. A broken connection is
// replaced and the whole batch retried, exactly like a single pooled
// request.
func (p *Pool) AnalyzeBatch(ctx context.Context, queries []string) ([]BatchResult, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	resp, err := p.do(ctx, batchRequest(ctx, wireDialect(p.cfg.Dialect), queries))
	if err != nil {
		return nil, err
	}
	return batchResults(resp, len(queries))
}

// batcher coalesces concurrent single-query AnalyzeSiteContext calls into
// batch frames: a call joins the forming batch and the batch flushes when
// it reaches size, before it would outgrow maxBatchBytes, or when the
// oldest call has lingered for the configured window. One frame then
// carries every coalesced check, so N concurrent callers pay one round
// trip between them instead of N.
type batcher struct {
	pool   *Pool
	size   int
	linger time.Duration

	mu      sync.Mutex
	pending []*batchCall
	bytes   int // the pending items' batchItemBytes
	timer   *time.Timer
}

// maxBatchBytes bounds the items of one micro-batch, so its frame stays
// within the DefaultMaxRequestBytes a server accepts: a larger frame would
// break the connection and fail every coalesced call. The rest of the
// request cap is room for the frame's own fields.
const maxBatchBytes = DefaultMaxRequestBytes - 256

// batchItemBytes bounds the bytes req takes as a batch item in either
// frame encoding. A binary item is smaller than its JSON form, which
// spends at most 96 bytes on field names, punctuation and the timeout,
// and escapes a byte into at most six (\u00XX).
func batchItemBytes(req *wireRequest) int {
	return 96 + escapedBytes(req.Query) + escapedBytes(req.Site) + escapedBytes(req.Dialect) + escapedBytes(req.Version)
}

// escapedBytes bounds the JSON-escaped length of s: one byte per printable
// ASCII byte JSON writes verbatim, six per other byte.
func escapedBytes(s string) int {
	n := len(s)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			n += 5
		}
	}
	return n
}

// batchCall is one caller waiting inside a forming batch. done is buffered
// so a flusher can always deliver, even when the caller already gave up on
// its context and left.
type batchCall struct {
	req  wireRequest
	done chan batchOut
}

type batchOut struct {
	reply *AnalysisReply
	err   error
}

func newBatcher(p *Pool, size int, linger time.Duration) *batcher {
	if linger <= 0 {
		linger = 500 * time.Microsecond
	}
	return &batcher{pool: p, size: size, linger: linger}
}

// analyze enqueues one analyze request (already stamped with its deadline
// budget, and possibly carrying a call site) of itemBytes bytes
// (batchItemBytes, at most maxBatchBytes) into the forming batch and waits
// for its slot's outcome. A call that would push the batch past
// maxBatchBytes flushes it first and starts the next; the call that fills
// the batch flushes it inline; the first call into an empty batch arms
// the linger timer that flushes a partial batch. A caller whose ctx ends
// while waiting returns ctx's error; its query may still be analyzed
// server-side (its stamped budget bounds that work), and its slot's
// result is discarded.
func (b *batcher) analyze(ctx context.Context, req wireRequest, itemBytes int) (*AnalysisReply, error) {
	call := &batchCall{
		req:  req,
		done: make(chan batchOut, 1),
	}
	var spilled, full []*batchCall
	b.mu.Lock()
	if b.bytes+itemBytes > maxBatchBytes {
		spilled = b.take()
	}
	b.pending = append(b.pending, call)
	b.bytes += itemBytes
	if len(b.pending) >= b.size {
		full = b.take()
	} else if len(b.pending) == 1 {
		b.timer = time.AfterFunc(b.linger, b.flushPending)
	}
	b.mu.Unlock()
	if len(spilled) > 0 {
		b.flush(spilled)
	}
	if full != nil {
		b.flush(full)
	}
	select {
	case out := <-call.done:
		return out.reply, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// take detaches the forming batch and disarms its linger timer. Must be
// called with mu held.
func (b *batcher) take() []*batchCall {
	batch := b.pending
	b.pending, b.bytes = nil, 0
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// flushPending is the linger-timer path: flush whatever has accumulated.
func (b *batcher) flushPending() {
	b.mu.Lock()
	batch := b.take()
	b.mu.Unlock()
	if len(batch) > 0 {
		b.flush(batch)
	}
}

// flush sends one batch frame and distributes the per-item outcomes. The
// round trip itself runs under the pool's own deadline rather than any
// single caller's context: the batch serves several callers, and each
// item already carries its own server-side budget.
func (b *batcher) flush(batch []*batchCall) {
	req := wireRequest{Op: "batch", Batch: make([]wireRequest, len(batch))}
	for i, call := range batch {
		req.Batch[i] = call.req
	}
	resp, err := b.pool.do(context.Background(), req)
	if err == nil && len(resp.Batch) != len(batch) {
		err = fmt.Errorf("daemon: batch reply has %d items, want %d", len(resp.Batch), len(batch))
	}
	if err != nil {
		for _, call := range batch {
			call.done <- batchOut{err: err}
		}
		return
	}
	for i, call := range batch {
		item := &resp.Batch[i]
		switch {
		case item.Err != "":
			call.done <- batchOut{err: fmt.Errorf("daemon: %s", item.Err)}
		case item.Reply == nil:
			call.done <- batchOut{err: errors.New("daemon: batch item returned no payload")}
		default:
			call.done <- batchOut{reply: item.Reply}
		}
	}
}
