package daemon

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joza/internal/core"
	"joza/internal/engine"
	"joza/internal/nti"
	"joza/internal/sqltoken"
	"joza/internal/trace"
)

// handshake serves one pipe connection from srv, negotiates binary frames
// with a raw analyze frame, and returns the client end and its reader,
// positioned just past the JSON acknowledgement.
func handshake(t testing.TB, srv *Server) (net.Conn, *bufio.Reader, chan struct{}) {
	t.Helper()
	clientSide, serverSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	_ = clientSide.SetDeadline(time.Now().Add(5 * time.Second))
	go func() {
		_, _ = clientSide.Write([]byte(`{"query":"SELECT 1","no_tokens":true,"binary":true}` + "\n"))
	}()
	br := bufio.NewReader(clientSide)
	ack, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp wireResponse
	if err := json.Unmarshal([]byte(ack), &resp); err != nil || !resp.Binary || strings.Contains(ack, `"tokens"`) {
		t.Fatalf("handshake reply %q: want a token-free acknowledgement", ack)
	}
	_ = clientSide.SetDeadline(time.Time{})
	return clientSide, br, done
}

// TestBinaryCodecRoundTrip is the codec's round-trip property: a request
// parses back to itself, and the response appended from a verdict parses
// to exactly the reply replyFor builds from it.
func TestBinaryCodecRoundTrip(t *testing.T) {
	requests := []wireRequest{
		{Query: benignQuery},
		{Query: ""},
		{Query: attackQuery, Site: "plugin:a", Dialect: "postgres", Version: "0123456789abcdef", TimeoutMs: 250},
		{Query: "q\x00\xff\n", TimeoutMs: -1},
		{Query: "x", TimeoutMs: 1 << 62, Version: "v"},
	}
	for _, want := range requests {
		got, err := parseRequest(frameAnalyze, appendRequest(nil, &want))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("request %+v parsed back as %+v (err %v)", want, got, err)
		}
	}
	batch := wireRequest{Op: "batch", Dialect: "sqlite", Version: "pin", Batch: requests}
	if got, err := parseRequest(frameBatch, appendBatchRequest(nil, &batch)); err != nil || !reflect.DeepEqual(got, batch) {
		t.Errorf("batch parsed back as %+v (err %v)", got, err)
	}

	tok := sqltoken.Token{Kind: sqltoken.KindKeyword, Text: "UNION", Start: 12, End: 17}
	span := &trace.Span{Query: attackQuery, TotalNs: 1234, LexNs: 56, CacheOutcome: "miss", UncoveredTokens: []trace.Uncovered{{Token: "UNION", TokenStart: 12, TokenEnd: 17}}}
	verdicts := []core.Verdict{
		{},
		{Version: "0123456789abcdef"},
		{Attack: true, PTI: core.Result{Attack: true, Reasons: []core.Reason{
			{Token: tok, Detail: "not covered by any fragment"},
			{Token: sqltoken.Token{Kind: sqltoken.KindOperator, Text: "=", Start: -1, End: 1 << 40}},
		}}},
		{Attack: true, Failed: true, PTI: core.Result{Reasons: []core.Reason{{Detail: "over budget"}}}},
		{Trace: span},
		{Attack: true, Profile: core.Result{Attack: true, Reasons: []core.Reason{{Kind: core.ReasonUnseen, Site: "s", Skeleton: "SELECT ?"}}},
			ProfileOutcome: "unseen", Skeleton: "SELECT ?"},
		{Attack: true, Profile: core.Result{Attack: true, Reasons: []core.Reason{{Detail: "fixed detail"}}}},
		{Attack: true, Profile: core.Result{Attack: true, Reasons: []core.Reason{{Kind: core.ReasonSiteUnknown, Site: "s"}}},
			ProfileOutcome: "site-unknown", Skeleton: "SELECT ?"},
		{ProfileOutcome: "some-future-outcome", Skeleton: "x"},
	}
	for _, o := range profileOutcomes[1:] {
		verdicts = append(verdicts, core.Verdict{ProfileOutcome: o, Skeleton: "SELECT * FROM T WHERE ID = ?", Version: "v"})
	}
	for _, site := range []string{"", "plugin:a"} {
		for _, v := range verdicts {
			want := wireResponse{Reply: replyFor(&v, site)}
			got, err := parseResponse(frameAnalyze, appendVerdictResponse(nil, &v, ""), &wireRequest{Site: site})
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("site %q verdict %+v:\n got %+v (err %v)\nwant %+v", site, v, got.Reply, err, want.Reply)
			}
		}
	}
	want := wireResponse{Err: "version mismatch"}
	if got, err := parseResponse(frameAnalyze, appendVerdictResponse(nil, &core.Verdict{Attack: true}, want.Err), &wireRequest{}); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("refusal parsed back as %+v (err %v)", got, err)
	}
	for _, body := range [][]byte{nil, {0xff}, {respErr | respAttack, 0}, {0, 0, 5}, {respTrace, 0, 0, 1, '{'}} {
		if _, err := parseResponse(frameAnalyze, body, &wireRequest{}); err == nil {
			t.Errorf("malformed response body %q parsed", body)
		}
	}
}

// splitNewlineConn delivers a chunk's trailing newline in a Read of its
// own, the way a peer's JSON encoder newline can arrive after the frame it
// ends.
type splitNewlineConn struct {
	net.Conn
	held bool
}

func (c *splitNewlineConn) Read(p []byte) (int, error) {
	if c.held {
		c.held = false
		p[0] = '\n'
		return 1, nil
	}
	n, err := c.Conn.Read(p)
	if n > 1 && p[n-1] == '\n' {
		c.held = true
		n--
	}
	return n, err
}

// kindCounter counts, on the server end of a pipe, the client writes that
// start a JSON frame and those that start each binary frame kind. net.Pipe
// delivers each client frame in one Read.
type kindCounter struct {
	net.Conn
	mu    sync.Mutex
	kinds map[byte]int
}

func (c *kindCounter) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		c.kinds[p[0]]++
		c.mu.Unlock()
	}
	return n, err
}

// TestBinaryNegotiationSwitchesBothEnds: a Client against a current
// server sends one JSON frame, then only binary frames — control verbs in
// the JSON envelope — and gets the verdicts a JSON-only connection gets,
// including when each newline arrives in a Read of its own.
func TestBinaryNegotiationSwitchesBothEnds(t *testing.T) {
	for _, split := range []bool{false, true} {
		srv := NewServer(newAnalyzer())
		clientSide, serverSide := net.Pipe()
		counted := &kindCounter{Conn: serverSide, kinds: map[byte]int{}}
		var sc, cc net.Conn = counted, clientSide
		if split {
			sc, cc = &splitNewlineConn{Conn: counted}, &splitNewlineConn{Conn: clientSide}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeConn(sc)
		}()
		c := NewClient(cc)
		ctx := context.Background()
		for i, q := range []string{benignQuery, attackQuery, benignQuery} {
			r, err := c.AnalyzeSiteContext(ctx, "", q)
			if err != nil {
				t.Fatalf("split=%v analyze %d: %v", split, i, err)
			}
			if r.Attack != (q == attackQuery) || r.Tokens != nil {
				t.Errorf("split=%v analyze %d: attack %v, %d tokens", split, i, r.Attack, len(r.Tokens))
			}
		}
		results, err := c.AnalyzeBatch(ctx, []string{attackQuery, benignQuery})
		if err != nil || len(results) != 2 || !results[0].Reply.Attack || results[1].Reply.Attack {
			t.Fatalf("split=%v batch: %+v, %v", split, results, err)
		}
		st, err := c.Stats()
		if err != nil || st.DaemonAnalyzeOps != 5 || st.DaemonBatchOps != 1 {
			t.Fatalf("split=%v stats: %+v, %v", split, st, err)
		}
		if _, err := c.Commit(ctx, ""); err == nil || c.Broken() {
			t.Errorf("split=%v commit with nothing staged: err %v, broken %v", split, err, c.Broken())
		}
		_ = c.Close()
		<-done
		want := map[byte]int{'{': 1, frameAnalyze: 2, frameBatch: 1, frameJSON: 2}
		if !reflect.DeepEqual(counted.kinds, want) {
			t.Errorf("split=%v: frames by first byte %v, want %v", split, counted.kinds, want)
		}
	}
}

// TestNoAckPeerStaysJSON: a client whose server never acknowledges binary
// — an old server, simulated by cutting both flags — keeps sending JSON
// frames, byte-identical to the flagless protocol after the first, and
// keeps reading JSON replies.
func TestNoAckPeerStaysJSON(t *testing.T) {
	srv := NewServer(newAnalyzer())
	clientSide, serverSide := net.Pipe()
	rec := &frameLog{Conn: serverSide}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(oldServerConn{rec})
	}()
	var tokenReplies atomic.Int64
	c := NewClient(countingConn{clientSide, &tokenReplies})
	for i := 0; i < 3; i++ {
		if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); err != nil {
			t.Fatal(err)
		}
	}
	_ = c.Close()
	<-done
	flagless := `{"query":"` + benignQuery + `"}` + "\n"
	want := []string{strings.TrimSuffix(flagless, "}\n") + `,"no_tokens":true,"binary":true}` + "\n", flagless, flagless}
	if !reflect.DeepEqual(rec.frames, want) {
		t.Errorf("frames seen by the old server\n got %q\nwant %q", rec.frames, want)
	}
	if tokenReplies.Load() != 3 {
		t.Errorf("%d of 3 replies carried the old server's token stream", tokenReplies.Load())
	}
}

// frameLog records every chunk read through it.
type frameLog struct {
	net.Conn
	frames []string
}

func (c *frameLog) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.frames = append(c.frames, string(p[:n]))
	}
	return n, err
}

// TestBinaryFrameLengthCap: a binary frame whose declared body length is
// exactly the request cap is served; one byte more ends the connection
// before any of the body is read.
func TestBinaryFrameLengthCap(t *testing.T) {
	const limit = 256
	srv := NewServer(newAnalyzer(), WithMaxRequestBytes(limit))
	conn, br, done := handshake(t, srv)
	defer func() {
		_ = conn.Close()
		<-done
	}()
	// flags, a 2-byte length and the query fill the body exactly.
	req := wireRequest{Query: "SELECT 1 " + strings.Repeat("-", limit-3-9)}
	frame := finishFrame(appendRequest(beginFrame(nil), &req), frameAnalyze)
	if n, _ := binary.Uvarint(frame[1:]); n != limit {
		t.Fatalf("test frame declares %d bytes, want %d", n, limit)
	}
	go func() { _, _ = conn.Write(frame) }()
	kind, n, err := readFrameHead(br)
	if err != nil || kind != frameAnalyze {
		t.Fatalf("frame at the cap: kind %d, err %v", kind, err)
	}
	body, err := readBody(br, nil, n)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := parseResponse(kind, body, &req); err != nil || resp.Reply == nil {
		t.Fatalf("frame at the cap not served: %+v, %v", resp, err)
	}

	over := binary.AppendUvarint([]byte{frameAnalyze}, limit+1)
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(over); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a frame over the cap did not end the connection")
	}
	if _, err := br.ReadByte(); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("read after the oversized head: %v, want the connection closed", err)
	}
}

// TestBinaryHybridVerdictsMatchJSON: a HybridClient over a binary
// connection reaches exactly the verdicts it reaches over a JSON one,
// with a call site, a profile verdict and a version on every reply.
func TestBinaryHybridVerdictsMatchJSON(t *testing.T) {
	hybridOver := func(jsonOnly bool) *HybridClient {
		clientSide, serverSide := net.Pipe()
		var sc net.Conn = serverSide
		if jsonOnly {
			sc = oldServerConn{serverSide}
		}
		go goldenServer().ServeConn(sc)
		h := NewHybridClient(NewClient(clientSide), nti.MustNew(), core.PolicyTerminate)
		t.Cleanup(func() { _ = h.Close() })
		return h
	}
	bin, js := hybridOver(false), hybridOver(true)
	for _, c := range []engine.Request{
		{Query: benignQuery, Site: "s1", Inputs: []nti.Input{{Source: "get", Name: "id", Value: "5"}}},
		{Query: attackQuery, Site: "s1", Inputs: []nti.Input{{Source: "get", Name: "id", Value: "-1 UNION SELECT username()"}}},
		{Query: attackQuery},
		{Query: ""},
	} {
		want, err := js.Check(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bin.Check(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: binary verdict\n %+v\nwant %+v", c.Query, got, want)
		}
	}
}

// TestParseResponseAllocations pins the decode of an analyze reply: one
// object for the reply, one that holds a reply and its profile together,
// plus one string per non-empty text field the reply keeps.
func TestParseResponseAllocations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		v      core.Verdict
		allocs float64
	}{
		{"no profile", core.Verdict{}, 1},
		{"profile, skeleton", core.Verdict{ProfileOutcome: "seen", Skeleton: "SELECT * FROM t WHERE id = ?"}, 2},
	} {
		body := appendVerdictResponse(nil, &tc.v, "")
		req := &wireRequest{Site: "plugin:a"}
		if n := testing.AllocsPerRun(100, func() { _, _ = parseResponse(frameAnalyze, body, req) }); n != tc.allocs {
			t.Errorf("%s: parseResponse allocates %.1f times, want %.1f", tc.name, n, tc.allocs)
		}
	}
}
