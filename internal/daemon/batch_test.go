package daemon

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"joza/internal/core"
)

// TestMicroBatcherCoalesces proves BatchSize actually batches: concurrent
// AnalyzeSiteContext calls must reach the server inside "batch" frames, not as
// individual analyze requests.
func TestMicroBatcherCoalesces(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(newAnalyzer())
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = srv.Serve(ln)
	}()
	defer func() {
		_ = srv.Close()
		<-serveDone
	}()
	p := DialPool(ln.Addr().String(), PoolConfig{
		Size:        2,
		Timeout:     5 * time.Second,
		BatchSize:   4,
		BatchLinger: 2 * time.Millisecond,
	})
	defer p.Close()

	const calls = 16
	var wg sync.WaitGroup
	errs := make([]error, calls)
	attacks := make([]bool, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := benignQuery
			if i%2 == 1 {
				q = attackQuery
			}
			reply, err := p.AnalyzeSiteContext(context.Background(), "", q)
			if err == nil && len(reply.Tokens) != 0 {
				err = errors.New("batch item carried a token stream")
			}
			if err != nil {
				errs[i] = err
				return
			}
			attacks[i] = reply.Attack
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	for i, attack := range attacks {
		if want := i%2 == 1; attack != want {
			t.Fatalf("call %d: attack=%v, want %v — batcher mixed up result routing", i, attack, want)
		}
	}
	st := srv.Stats()
	if st.DaemonBatchOps == 0 {
		t.Fatal("no batch frames reached the server; the micro-batcher did not coalesce")
	}
	if st.DaemonBatchItems != calls {
		t.Fatalf("server saw %d batch items, want %d", st.DaemonBatchItems, calls)
	}
	if st.DaemonBatchOps >= calls {
		t.Fatalf("%d batch frames for %d calls; nothing was coalesced", st.DaemonBatchOps, calls)
	}
}

// TestMicroBatcherLingerFlushesPartialBatch: a lone call must not wait for
// a full batch — the linger timer flushes it.
func TestMicroBatcherLingerFlushesPartialBatch(t *testing.T) {
	addr := startTCPServer(t, newAnalyzer())
	p := DialPool(addr, PoolConfig{
		Size:        1,
		Timeout:     5 * time.Second,
		BatchSize:   64,
		BatchLinger: time.Millisecond,
	})
	defer p.Close()
	start := time.Now()
	reply, err := p.AnalyzeSiteContext(context.Background(), "", benignQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Attack {
		t.Error("benign flagged")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("lone call took %v; linger flush did not fire", elapsed)
	}
}

// TestMicroBatcherCallerCancellation: a caller abandoning its slot must
// get ctx's error promptly, and the batcher must survive delivering the
// abandoned slot's result.
func TestMicroBatcherAbandonedCaller(t *testing.T) {
	addr := startTCPServer(t, newAnalyzer())
	p := DialPool(addr, PoolConfig{
		Size:        1,
		Timeout:     5 * time.Second,
		BatchSize:   64,
		BatchLinger: 50 * time.Millisecond,
	})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.AnalyzeSiteContext(ctx, "", benignQuery); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned caller got %v, want context.Canceled", err)
	}
	// The batcher still flushes the abandoned item and stays usable.
	reply, err := p.AnalyzeSiteContext(context.Background(), "", benignQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Attack {
		t.Error("benign flagged")
	}
}

// TestMicroBatcherClampsToServerCap: a BatchSize above the server's item
// cap is clamped to it, so a full batch is never refused whole and no
// coalesced call fails.
func TestMicroBatcherClampsToServerCap(t *testing.T) {
	srv := NewServer(newAnalyzer())
	p := pipePool(srv, MaxBatchItems+10)
	defer p.Close()
	const calls = MaxBatchItems + 1
	queries := make([]string, calls)
	for i := range queries {
		queries[i] = benignQuery
	}
	for i, out := range concurrentChecks(p, queries) {
		if out.err != nil {
			t.Fatalf("call %d: %v", i, out.err)
		}
	}
	if st := srv.Stats(); st.DaemonErrors != 0 || st.DaemonBatchItems != calls {
		t.Errorf("server saw %d errors and %d batch items, want 0 and %d", st.DaemonErrors, st.DaemonBatchItems, calls)
	}
}

// pipePool returns a pool of one connection to srv over net.Pipe, with
// the micro-batcher coalescing up to batchSize calls.
func pipePool(srv *Server, batchSize int) *Pool {
	return NewPool(func() (net.Conn, error) {
		clientSide, serverSide := net.Pipe()
		go srv.ServeConn(serverSide)
		return clientSide, nil
	}, PoolConfig{
		Size:        1,
		Timeout:     30 * time.Second,
		BatchSize:   batchSize,
		BatchLinger: 500 * time.Millisecond,
	})
}

// concurrentChecks runs one AnalyzeSiteContext call per query at once
// through tr and returns each call's outcome.
func concurrentChecks(tr Transport, queries []string) []batchOut {
	outs := make([]batchOut, len(queries))
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q string) {
			defer wg.Done()
			outs[i].reply, outs[i].err = tr.AnalyzeSiteContext(context.Background(), "", q)
		}(i, q)
	}
	wg.Wait()
	return outs
}

// longBenignQuery returns a benign query of n bytes (n > 39): a number
// of n-39 digits between the two trusted fragments.
func longBenignQuery(n int) string {
	return "SELECT * FROM records WHERE ID=" + strings.Repeat("5", n-39) + " LIMIT 5"
}

// TestMicroBatcherBoundsFrameBytes: a full batch of 4096 310-byte queries
// would be a frame over the server's 1 MiB request cap, which breaks the
// connection and used to fail every coalesced call. The batcher flushes
// before a batch outgrows the cap, so every call succeeds.
func TestMicroBatcherBoundsFrameBytes(t *testing.T) {
	srv := NewServer(newAnalyzer())
	p := pipePool(srv, 4096)
	defer p.Close()
	q := longBenignQuery(310)
	if len(q) != 310 || 4096*len(q) <= DefaultMaxRequestBytes {
		t.Fatalf("query of %d bytes does not overfill a 4096-item batch", len(q))
	}
	queries := make([]string, 4096)
	for i := range queries {
		queries[i] = q
	}
	for i, out := range concurrentChecks(p, queries) {
		if out.err != nil {
			t.Fatalf("call %d: %v", i, out.err)
		}
	}
	if st := srv.Stats(); st.DaemonErrors != 0 || st.DaemonBatchItems != 4096 || st.DaemonBatchOps < 2 {
		t.Errorf("server saw %d errors, %d batch items in %d batches, want 0 and 4096 in 2 or more",
			st.DaemonErrors, st.DaemonBatchItems, st.DaemonBatchOps)
	}
}

// TestMicroBatcherSendsOverCapQueryAlone: a query too large for any frame
// the server accepts goes out on its own, so it fails alone and its small
// neighbours, coalesced meanwhile, all get their verdicts.
func TestMicroBatcherSendsOverCapQueryAlone(t *testing.T) {
	srv := NewServer(newAnalyzer())
	p := pipePool(srv, 64)
	defer p.Close()
	queries := make([]string, 65)
	for i := range queries {
		queries[i] = benignQuery
	}
	const big = 32
	queries[big] = longBenignQuery(DefaultMaxRequestBytes + 1)
	for i, out := range concurrentChecks(p, queries) {
		if (out.err != nil) != (i == big) {
			t.Errorf("call %d (%d bytes): error %v", i, len(queries[i]), out.err)
		}
	}
	if st := srv.Stats(); st.DaemonBatchItems != 64 {
		t.Errorf("server saw %d batch items, want the 64 small calls", st.DaemonBatchItems)
	}
}

// TestBatchPoisonedItemIsolated: one item with an expired budget fails
// alone; its siblings carry replies and the connection stays healthy.
func TestBatchPoisonedItemIsolated(t *testing.T) {
	c, stop := spawnOnServer(t, NewServer(newAnalyzer()))
	defer stop()
	resp, err := c.roundTrip(context.Background(), wireRequest{
		Op: "batch",
		Batch: []wireRequest{
			{Query: benignQuery},
			{Query: benignQuery, TimeoutMs: -1}, // already-expired budget
			{Query: attackQuery},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Batch) != 3 {
		t.Fatalf("%d items in reply, want 3", len(resp.Batch))
	}
	if resp.Batch[0].Err != "" || resp.Batch[0].Reply == nil || resp.Batch[0].Reply.Attack {
		t.Errorf("healthy sibling 0 = %+v", resp.Batch[0])
	}
	if resp.Batch[1].Err == "" || resp.Batch[1].Reply != nil {
		t.Errorf("poisoned item = %+v, want per-item error", resp.Batch[1])
	}
	if resp.Batch[2].Err != "" || resp.Batch[2].Reply == nil || !resp.Batch[2].Reply.Attack {
		t.Errorf("healthy sibling 2 = %+v", resp.Batch[2])
	}
	// The stream survived: a follow-up single request works.
	reply, err := c.analyze(context.Background(), benignQuery)
	if err != nil {
		t.Fatalf("connection unhealthy after poisoned batch item: %v", err)
	}
	if reply.Attack {
		t.Error("benign flagged")
	}
}

// TestBatchItemCapRefusedOnHealthyStream: a batch above the item cap is
// refused whole, and the connection survives.
func TestBatchItemCapRefusedOnHealthyStream(t *testing.T) {
	c, stop := spawnOnServer(t, NewServer(newAnalyzer()))
	defer stop()
	over := make([]string, MaxBatchItems+1)
	for i := range over {
		over[i] = benignQuery
	}
	_, err := c.roundTrip(context.Background(), batchOf(over...))
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("over-cap batch error = %v, want item-cap refusal", err)
	}
	if c.Broken() {
		t.Fatal("connection broken by an over-cap batch; the refusal must ride the healthy stream")
	}
	resp, err := c.roundTrip(context.Background(), batchOf(benignQuery, attackQuery))
	if err != nil {
		t.Fatalf("batch under the cap after a refusal: %v", err)
	}
	if len(resp.Batch) != 2 || resp.Batch[0].Err != "" || resp.Batch[1].Err != "" || !resp.Batch[1].Reply.Attack {
		t.Fatalf("batch reply = %+v", resp.Batch)
	}
}

// batchOf builds a batch frame of one analyze item per query.
func batchOf(queries ...string) wireRequest {
	req := wireRequest{Op: "batch", Batch: make([]wireRequest, len(queries))}
	for i, q := range queries {
		req.Batch[i].Query = q
	}
	return req
}

// TestBatchEmptyRefused: an explicit empty batch frame is a protocol error
// answered on the healthy stream.
func TestBatchEmptyRefused(t *testing.T) {
	c, stop := spawnOnServer(t, NewServer(newAnalyzer()))
	defer stop()
	_, err := c.roundTrip(context.Background(), wireRequest{Op: "batch"})
	if err == nil || !strings.Contains(err.Error(), "empty batch") {
		t.Fatalf("empty batch error = %v", err)
	}
	if c.Broken() {
		t.Fatal("connection broken by an empty batch")
	}
}

// TestBatchPartialReplyIsProtocolError: a server answering a batch with
// the wrong item count is a protocol violation — every call in the batch
// fails — but the frame itself was well-formed, so the connection is
// kept: the next batch rides it without a redial.
func TestBatchPartialReplyIsProtocolError(t *testing.T) {
	// A fake daemon that answers every batch with a single-item reply.
	p := NewPool(func() (net.Conn, error) {
		clientSide, serverSide := net.Pipe()
		go func() {
			defer serverSide.Close()
			br := bufio.NewReader(serverSide)
			reply := appendVerdictResponse([]byte{1}, &core.Verdict{}, "") // an item count of 1, then the item
			for {
				_, n, err := readFrameHead(br)
				if err == nil {
					err = discardBody(br, n)
				}
				if err != nil {
					return
				}
				if _, err := serverSide.Write(finishFrame(append(beginFrame(nil), reply...), frameBatch)); err != nil {
					return
				}
			}
		}()
		return clientSide, nil
	}, PoolConfig{Size: 1, Timeout: 30 * time.Second, BatchSize: 2, BatchLinger: 30 * time.Second})
	defer p.Close()
	for range 2 {
		for i, out := range concurrentChecks(p, []string{benignQuery, attackQuery}) {
			if out.err == nil || !strings.Contains(out.err.Error(), "batch reply has 1 items, want 2") {
				t.Fatalf("call %d: short reply error = %v", i, out.err)
			}
		}
	}
	if p.Dials() != 1 {
		t.Fatalf("%d dials: the count mismatch broke the connection, though the stream itself was in sync", p.Dials())
	}
}

// TestBatchOversizedFrameRefusedOnHealthyStream: a batch frame exceeding
// the request byte limit is discarded unread and refused whole, exactly
// like an oversized single request, and the connection keeps serving.
func TestBatchOversizedFrameRefusedOnHealthyStream(t *testing.T) {
	srv := NewServer(newAnalyzer(), WithMaxRequestBytes(256))
	c, stop := spawnOnServer(t, srv)
	defer stop()
	big := strings.Repeat("SELECT * FROM records WHERE ID=5 LIMIT 5; ", 32)
	_, err := c.roundTrip(context.Background(), batchOf(big, big))
	if err == nil || !strings.Contains(err.Error(), "exceeds the 256-byte cap") {
		t.Fatalf("oversized batch frame: %v, want the request cap's refusal", err)
	}
	if c.Broken() {
		t.Fatal("an oversized frame broke the connection; the refusal must ride the healthy stream")
	}
	resp, err := c.roundTrip(context.Background(), batchOf(benignQuery, attackQuery))
	if err != nil || len(resp.Batch) != 2 || resp.Batch[0].Err != "" || resp.Batch[1].Err != "" || !resp.Batch[1].Reply.Attack {
		t.Fatalf("batch under the cap after the refusal: %+v, %v", resp.Batch, err)
	}
	if st := srv.Stats(); st.DaemonErrors != 1 || st.DaemonBatchItems != 2 {
		t.Errorf("%d errors and %d batch items, want the one refusal and the 2 items under the cap", st.DaemonErrors, st.DaemonBatchItems)
	}
}

// TestBatchItemBytesExact: batchItemBytes is the size of the item's
// encoding, whichever optional fields are set.
func TestBatchItemBytesExact(t *testing.T) {
	for _, req := range []wireRequest{
		{},
		{Query: benignQuery},
		{Query: strings.Repeat("\x00\"<>&", 40), Site: "plugin:a", Dialect: "postgres", Version: "0123456789abcdef", TimeoutMs: -1},
		{Query: longBenignQuery(20000), TimeoutMs: 1 << 62},
		{Query: "x", Site: strings.Repeat("s", 200), TimeoutMs: 63},
	} {
		if got, want := batchItemBytes(&req), len(appendRequest(nil, &req)); got != want {
			t.Errorf("batchItemBytes = %d, encoding is %d bytes (%d-byte query)", got, want, len(req.Query))
		}
	}
}

// FuzzBatchFrame drives binary batch frames with arbitrary queries, item
// counts, budgets, version pins and frame dialects. The invariant: a batch
// frame never panics the server; the reply carries exactly one response
// per item, or a whole-batch refusal for an empty, over-cap or oversized
// batch; against this unversioned server every item of a pinned batch is
// refused; and the stream stays healthy for the next frame.
func FuzzBatchFrame(f *testing.F) {
	f.Add("SELECT * FROM records WHERE ID=5 LIMIT 5", "SELECT 1", uint8(2), int64(0), "", "")
	f.Add("", "x", uint8(0), int64(-1), "", "")
	f.Add("SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5", "", uint8(7), int64(1<<62), "deadbeefdeadbeef", "")
	f.Add("q", "q", uint8(255), int64(1), "\x00\xffgarbage", "")
	f.Add("SELECT 1", "SELECT 1", uint8(3), int64(0), "mixed\ncase", "")
	f.Add("SELECT * FROM records WHERE ID=5 LIMIT 5", "SELECT 1", uint8(2), int64(0), "", "postgres")
	f.Add("SELECT * FROM records WHERE ID=5 LIMIT 5", "SELECT 1", uint8(2), int64(0), "", "oracle")
	f.Add("SELECT * FROM records WHERE ID=5 LIMIT 5", "SELECT 1", uint8(2), int64(0), "", "mysql")
	analyzer := newAnalyzer()
	f.Fuzz(func(t *testing.T, q1, q2 string, n uint8, timeoutMs int64, version, dialect string) {
		if len(q1) > 1<<10 || len(q2) > 1<<10 || len(version) > 1<<8 || len(dialect) > 1<<6 {
			t.Skip()
		}
		c := pipeFrames(t, NewServer(analyzer))
		size := int(n) % 96
		if n == 255 {
			size = MaxBatchItems + 1 // one item over the cap
		}
		items := make([]wireRequest, size)
		for i := range items {
			if i%2 == 0 {
				items[i] = wireRequest{Query: q1, TimeoutMs: timeoutMs}
			} else {
				// Odd items carry the fuzzed version pin directly; even ones
				// inherit the frame-level pin.
				items[i] = wireRequest{Query: q2, Version: version}
			}
		}
		req := wireRequest{Op: "batch", Batch: items, Version: version, Dialect: dialect}
		resp := c.send(req)
		switch {
		case len(items) == 0 || len(items) > MaxBatchItems || len(appendBatchRequest(nil, &req)) > DefaultMaxRequestBytes:
			if resp.Err == "" {
				t.Fatalf("batch of %d items accepted, want whole-batch refusal", len(items))
			}
		case resp.Err != "":
			t.Fatalf("well-formed batch of %d failed: %v", len(items), resp.Err)
		case len(resp.Batch) != len(items):
			t.Fatalf("%d replies for %d items", len(resp.Batch), len(items))
		}
		for i, item := range resp.Batch {
			if version != "" && item.Err == "" {
				t.Fatalf("item %d pinned to %q answered by an unversioned server: %+v", i, version, item.Reply)
			}
		}
		// The stream survived whatever the batch did.
		resp = c.send(wireRequest{Query: "SELECT * FROM records WHERE ID=5 LIMIT 5"})
		if resp.Err != "" || resp.Reply == nil || resp.Reply.Attack {
			t.Fatalf("follow-up request = %+v", resp)
		}
	})
}
