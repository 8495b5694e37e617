package daemon

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestClientAnalyzeBatch(t *testing.T) {
	c, stop := SpawnPipe(newAnalyzer())
	defer stop()
	queries := []string{benignQuery, attackQuery, benignQuery}
	results, err := c.AnalyzeBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(results), len(queries))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	if results[0].Reply.Attack || results[2].Reply.Attack {
		t.Error("benign items flagged")
	}
	if !results[1].Reply.Attack {
		t.Error("attack item missed")
	}
	// The batch was this connection's first frame, so it latched
	// no_tokens: no item carries a token stream. A flagless batch frame
	// is refused whole (TestFlaglessFramesRefused).
	for i, r := range results {
		if len(r.Reply.Tokens) != 0 {
			t.Errorf("item %d carried tokens to a new client", i)
		}
	}

	// Empty batch is a client-side no-op, not a wire request.
	results, err = c.AnalyzeBatch(context.Background(), nil)
	if err != nil || results != nil {
		t.Fatalf("empty batch = (%v, %v), want (nil, nil)", results, err)
	}
}

func TestPoolAnalyzeBatch(t *testing.T) {
	addr := startTCPServer(t, newAnalyzer())
	p := DialPool(addr, PoolConfig{Size: 2, Timeout: 5 * time.Second})
	defer p.Close()
	results, err := p.AnalyzeBatch(context.Background(), []string{attackQuery, benignQuery})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Reply.Attack || results[1].Reply.Attack {
		t.Fatalf("verdicts out of order: %+v", results)
	}
}

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
	p := NewPool(func() (net.Conn, error) {
		clientSide, serverSide := net.Pipe()
		go srv.ServeConn(serverSide)
		return clientSide, nil
	}, PoolConfig{
		Size:        1,
		Timeout:     30 * time.Second,
		BatchSize:   MaxBatchItems + 10,
		BatchLinger: 500 * time.Millisecond,
	})
	defer p.Close()
	const calls = MaxBatchItems + 1
	var wg sync.WaitGroup
	var failed sync.Map
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := p.AnalyzeSiteContext(context.Background(), "", benignQuery); err != nil {
				failed.Store(i, err)
			}
		}(i)
	}
	wg.Wait()
	failed.Range(func(i, err any) bool {
		t.Errorf("call %v: %v", i, err)
		return false
	})
	if st := srv.Stats(); st.DaemonErrors != 0 || st.DaemonBatchItems != calls {
		t.Errorf("server saw %d errors and %d batch items, want 0 and %d", st.DaemonErrors, st.DaemonBatchItems, calls)
	}
}

// TestBatchPoisonedItemIsolated: one item with an expired budget fails
// alone; its siblings carry replies and the connection stays healthy.
func TestBatchPoisonedItemIsolated(t *testing.T) {
	c, stop := SpawnPipe(newAnalyzer())
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
	reply, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery)
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
	over := make([]string, MaxBatchItems+1)
	for i := range over {
		over[i] = benignQuery
	}
	_, err := c.AnalyzeBatch(context.Background(), over)
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("over-cap batch error = %v, want item-cap refusal", err)
	}
	if c.Broken() {
		t.Fatal("connection broken by an over-cap batch; the refusal must ride the healthy stream")
	}
	results, err := c.AnalyzeBatch(context.Background(), []string{benignQuery, attackQuery})
	if err != nil {
		t.Fatalf("batch under the cap after a refusal: %v", err)
	}
	if results[0].Err != nil || results[1].Err != nil || !results[1].Reply.Attack {
		t.Fatalf("results = %+v", results)
	}
}

// TestBatchEmptyRefused: an explicit empty batch frame is a protocol error
// answered on the healthy stream.
func TestBatchEmptyRefused(t *testing.T) {
	c, stop := SpawnPipe(newAnalyzer())
	defer stop()
	_, err := c.roundTrip(context.Background(), wireRequest{Op: "batch"})
	if err == nil || !strings.Contains(err.Error(), "empty batch") {
		t.Fatalf("empty batch error = %v", err)
	}
	if c.Broken() {
		t.Fatal("connection broken by an empty batch")
	}
}

// TestBatchNestedOpsRefusedPerItem: control verbs and nested batches
// inside a batch fail their own slot only.
func TestBatchNestedOpsRefusedPerItem(t *testing.T) {
	c, stop := SpawnPipe(newAnalyzer())
	defer stop()
	resp, err := c.roundTrip(context.Background(), wireRequest{
		Op: "batch",
		Batch: []wireRequest{
			{Op: "stats"},
			{Query: benignQuery},
			{Op: "batch", Batch: []wireRequest{{Query: benignQuery}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Batch[0].Err == "" || resp.Batch[2].Err == "" {
		t.Errorf("nested control ops not refused: %+v", resp.Batch)
	}
	if resp.Batch[1].Err != "" || resp.Batch[1].Reply == nil {
		t.Errorf("analyze sibling dragged down: %+v", resp.Batch[1])
	}
}

// TestBatchPartialReplyIsProtocolError: a server answering a batch with
// the wrong item count is a protocol violation — the whole call fails —
// but the frame itself was well-formed, so the connection is not broken.
func TestBatchPartialReplyIsProtocolError(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	// A fake daemon that answers every batch with a single-item reply.
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		dec := json.NewDecoder(bufio.NewReader(serverSide))
		enc := json.NewEncoder(serverSide)
		for {
			var req wireRequest
			if err := dec.Decode(&req); err != nil {
				return
			}
			resp := wireResponse{Batch: []wireResponse{{Reply: &AnalysisReply{}}}}
			if err := enc.Encode(resp); err != nil {
				return
			}
		}
	}()
	c := NewClient(clientSide)
	defer func() {
		_ = c.Close()
		_ = serverSide.Close()
		<-serveDone
	}()
	_, err := c.AnalyzeBatch(context.Background(), []string{benignQuery, attackQuery})
	if err == nil || !strings.Contains(err.Error(), "batch reply has 1 items, want 2") {
		t.Fatalf("short reply error = %v", err)
	}
	if c.Broken() {
		t.Fatal("count mismatch broke the connection; the stream itself was in sync")
	}
}

// TestBatchOversizedFrameBreaksConn: a batch frame exceeding the request
// byte limit is a framing fault — the server drops the connection, exactly
// like an oversized single request.
func TestBatchOversizedFrameBreaksConn(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	srv := NewServer(newAnalyzer(), WithMaxRequestBytes(256))
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.ServeConn(serverSide)
	}()
	c := NewClient(clientSide)
	defer func() {
		_ = c.Close()
		_ = serverSide.Close()
	}()
	big := strings.Repeat("SELECT * FROM records WHERE ID=5 LIMIT 5; ", 32)
	_, err := c.AnalyzeBatch(context.Background(), []string{big, big})
	if err == nil {
		t.Fatal("oversized batch frame succeeded past the byte limit")
	}
	select {
	case <-serveDone:
	case <-time.After(5 * time.Second):
		t.Fatal("server kept the connection after an oversized frame")
	}
	if !c.Broken() {
		t.Fatal("client still healthy after the server dropped the stream")
	}
}

// TestWireBackCompatOldClientFrames: single-request frame shapes — no
// op, no batch field — keep working against the new server once the
// connection has latched no_tokens, and a new client's single-request
// frames must stay byte-compatible (no new keys) with old servers.
func TestWireBackCompatOldClientFrames(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	srv := NewServer(newAnalyzer())
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.ServeConn(serverSide)
	}()
	defer func() {
		_ = clientSide.Close()
		_ = serverSide.Close()
		<-serveDone
	}()
	dec := json.NewDecoder(bufio.NewReader(clientSide))
	type raw map[string]any
	send := func(frame string) raw {
		t.Helper()
		if _, err := clientSide.Write([]byte(frame + "\n")); err != nil {
			t.Fatal(err)
		}
		var resp raw
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := send(`{"query":"` + benignQuery + `","no_tokens":true}`)
	if resp["error"] != nil || resp["reply"] == nil {
		t.Fatalf("old-style analyze frame = %v", resp)
	}
	resp = send(`{"op":"analyze","query":"` + attackQuery + `","timeout_ms":5000}`)
	if resp["error"] != nil || resp["reply"].(map[string]any)["attack"] != true {
		t.Fatalf("old-style analyze with budget = %v", resp)
	}
	resp = send(`{"op":"stats"}`)
	if resp["error"] != nil || resp["stats"] == nil {
		t.Fatalf("old-style stats frame = %v", resp)
	}

	// New client, old server: the single-request frame must not have
	// grown any field an old server would choke on or misread.
	frame, err := json.Marshal(wireRequest{Query: benignQuery})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(frame, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys["query"] == nil {
		t.Fatalf("single-request frame = %s; new fields must be omitempty", frame)
	}
}

// FuzzBatchFrame drives the batch verb with arbitrary queries, item
// counts, budgets, version pins and raw no_tokens values. The invariant: a
// well-formed batch frame never panics the server; on a connection that
// has not latched no_tokens it is refused whole, and otherwise the reply
// carries exactly one response per item (or a whole-batch error for
// empty/over-cap batches); no reply carries a token stream; and the stream
// stays healthy. A mistyped no_tokens value is a malformed frame: the
// connection ends, and the handler must not wedge.
func FuzzBatchFrame(f *testing.F) {
	f.Add("SELECT * FROM records WHERE ID=5 LIMIT 5", "SELECT 1", uint8(2), int64(0), "", "true")
	f.Add("", "x", uint8(0), int64(-1), "", "true")
	f.Add("SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5", "", uint8(7), int64(1<<62), "deadbeefdeadbeef", "true")
	f.Add("q", "q", uint8(255), int64(1), "\x00\xffgarbage", "true")
	f.Add("SELECT 1", "SELECT 1", uint8(3), int64(0), "mixed\ncase", "true")
	f.Add("SELECT * FROM records WHERE ID=5 LIMIT 5", "SELECT 1", uint8(2), int64(0), "", "")
	f.Add("SELECT * FROM records WHERE ID=5 LIMIT 5", "SELECT 1", uint8(2), int64(0), "", "false")
	f.Add("SELECT * FROM records WHERE ID=5 LIMIT 5", "SELECT 1", uint8(2), int64(0), "", `"yes"`)
	analyzer := newAnalyzer()
	f.Fuzz(func(t *testing.T, q1, q2 string, n uint8, timeoutMs int64, version, noTokens string) {
		if len(q1) > 1<<10 || len(q2) > 1<<10 || len(version) > 1<<8 || len(noTokens) > 1<<6 {
			t.Skip()
		}
		srv := NewServer(analyzer)
		clientSide, serverSide := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeConn(serverSide)
		}()
		defer func() {
			_ = clientSide.Close()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("connection handler wedged")
			}
		}()
		// Writes run beside the reads: the server answers a frame before it
		// drains the newline behind it.
		send := func(frame []byte) {
			go func() { _, _ = clientSide.Write(append(frame, '\n')) }()
		}
		dec := json.NewDecoder(bufio.NewReader(clientSide))

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
				// inherit the frame-level pin. Against this unversioned
				// server any non-empty pin must yield a per-item refusal on
				// the healthy stream, never fewer replies than items.
				items[i] = wireRequest{Query: q2, Version: version}
			}
		}
		frame, err := json.Marshal(wireRequest{Op: "batch", Batch: items, Version: version})
		if err != nil {
			t.Fatal(err)
		}
		if noTokens != "" {
			// Splice the raw value in, so the fuzzer reaches wrong types too.
			frame = append(frame[:len(frame)-1], `,"no_tokens":`+noTokens+`}`...)
		}
		send(frame)
		var latched bool
		switch noTokens {
		case "", "false":
		case "true":
			latched = true
		default:
			return // possibly malformed: only the no-wedge invariant applies
		}
		if len(frame) > DefaultMaxRequestBytes {
			return // over the request cap, which ends the connection
		}
		var resp wireResponse
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("batch of %d items: %v", len(items), err)
		}
		switch {
		case !latched:
			if resp.Err != errUnlatched || resp.Batch != nil {
				t.Fatalf("unlatched batch answered %+v, want the latch refusal", resp)
			}
		case len(items) == 0 || len(items) > MaxBatchItems:
			if resp.Err == "" {
				t.Fatalf("batch of %d items accepted, want whole-batch refusal", len(items))
			}
		case resp.Err != "":
			t.Fatalf("well-formed batch of %d failed: %v", len(items), resp.Err)
		case len(resp.Batch) != len(items):
			t.Fatalf("%d replies for %d items", len(resp.Batch), len(items))
		}
		for i, item := range resp.Batch {
			if item.Reply != nil && len(item.Reply.Tokens) != 0 {
				t.Fatalf("item %d carried tokens", i)
			}
		}
		// The stream survived whatever the batch did, and the latch holds.
		send([]byte(`{"query":"SELECT * FROM records WHERE ID=5 LIMIT 5"}`))
		resp = wireResponse{}
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("follow-up request failed: %v", err)
		}
		if latched && (resp.Reply == nil || len(resp.Reply.Tokens) != 0) {
			t.Fatalf("follow-up on a latched connection = %+v, want a token-free reply", resp)
		}
		if !latched && resp.Err != errUnlatched {
			t.Fatalf("follow-up on an unlatched connection = %+v, want the latch refusal", resp)
		}
	})
}
