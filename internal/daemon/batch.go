package daemon

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"
)

// This file implements the client side of the wire protocol's "batch"
// verb: the opt-in micro-batcher that transparently coalesces concurrent
// AnalyzeSiteContext calls into batch frames (see PoolConfig.BatchSize).
// Batching amortizes the per-frame round trip — the dominant cost of the
// remote deployment once the analysis itself is cache-hit microseconds —
// across N checks.

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
// be refused whole, failing every coalesced call. The rest of the request
// cap is room for the frame's own fields and the item count.
const maxBatchBytes = DefaultMaxRequestBytes - 256

// batchItemBytes is the size of req's encoding as a batch item
// (appendRequest): the flags byte, the length and bytes of the query and
// of each other string field that is set, and the timeout's varint.
func batchItemBytes(req *wireRequest) int {
	var scratch [binary.MaxVarintLen64]byte
	n := 1 + binary.PutUvarint(scratch[:], uint64(len(req.Query))) + len(req.Query)
	for _, s := range [...]string{req.Site, req.Dialect, req.Version} {
		if s != "" {
			n += binary.PutUvarint(scratch[:], uint64(len(s))) + len(s)
		}
	}
	if req.TimeoutMs != 0 {
		n += binary.PutVarint(scratch[:], req.TimeoutMs)
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
