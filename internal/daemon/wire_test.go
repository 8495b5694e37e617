package daemon

import (
	"bufio"
	"context"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// frameConn writes requests to a daemon as raw binary frames and reads
// their replies, with no Client in between.
type frameConn struct {
	t     testing.TB
	conn  net.Conn
	br    *bufio.Reader
	reply []byte // the body of the last reply
}

// pipeFrames serves one pipe connection from srv until the test ends and
// returns its client end.
func pipeFrames(t testing.TB, srv *Server) *frameConn {
	t.Helper()
	clientSide, serverSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	t.Cleanup(func() {
		_ = clientSide.Close()
		<-done
	})
	return &frameConn{t: t, conn: clientSide, br: bufio.NewReader(clientSide)}
}

// send writes req as one frame of its kind, the JSON envelope for a
// control verb, and returns the reply decoded from a frame of that kind.
func (c *frameConn) send(req wireRequest) wireResponse {
	c.t.Helper()
	body, kind, err := appendRequestBody(nil, &req)
	if err != nil {
		c.t.Fatal(err)
	}
	c.raw(kind, body)
	resp, err := parseResponse(kind, c.reply, &req)
	if err != nil {
		c.t.Fatalf("reply %q: %v", c.reply, err)
	}
	return resp
}

// raw writes one frame of kind with body and reads the body of its reply
// into c.reply, which must come in a frame of the same kind.
func (c *frameConn) raw(kind byte, body []byte) {
	c.t.Helper()
	errc := make(chan error, 1)
	go func() {
		_, err := c.conn.Write(finishFrame(append(beginFrame(nil), body...), kind))
		errc <- err
	}()
	got, n, err := readFrameHead(c.br)
	if err == nil && got != kind {
		c.t.Fatalf("a frame of kind %d answered with kind %d", kind, got)
	}
	if err == nil {
		c.reply, err = readBody(c.br, nil, n)
	}
	if err != nil {
		c.t.Fatalf("no reply to a frame of kind %d: %v", kind, err)
	}
	if err := <-errc; err != nil {
		c.t.Fatal(err)
	}
}

// TestJSONPeerRefused: a client from before binary frames, whose first
// byte opens a JSON object, gets one JSON line naming binary frames and
// the connection closes; the refusal counts as an error, and nothing is
// analyzed.
func TestJSONPeerRefused(t *testing.T) {
	srv := NewServer(newAnalyzer())
	clientSide, serverSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	defer clientSide.Close()
	_ = clientSide.SetDeadline(time.Now().Add(5 * time.Second))
	go func() {
		_, _ = clientSide.Write([]byte(`{"op":"analyze","query":"` + benignQuery + `"}` + "\n"))
	}()
	got, err := io.ReadAll(clientSide)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != jsonPeerRefusal || !strings.Contains(jsonPeerRefusal, "binary frames only") {
		t.Errorf("JSON peer got %q, want %q", got, jsonPeerRefusal)
	}
	<-done
	if st := srv.Stats(); st.DaemonErrors != 1 || st.DaemonAnalyzeOps != 0 || st.Checks != 0 {
		t.Errorf("refused JSON peer: %d errors, %d analyze ops, %d checks; want 1, 0, 0", st.DaemonErrors, st.DaemonAnalyzeOps, st.Checks)
	}
}

// TestJSONPeerLongLineRefusalBounded: a JSON-era peer whose first line is
// longer than the server's read buffer is still writing, and reads
// nothing, when the refusal goes out. Over a synchronous net.Pipe the
// refusal's write gives up at the read timeout, or after
// jsonRefusalTimeout when none is set, and the connection closes, which
// ends the peer's write too.
func TestJSONPeerLongLineRefusalBounded(t *testing.T) {
	line := []byte(`{"op":"analyze","query":"` + strings.Repeat("x", 64<<10) + `"}` + "\n")
	for _, tc := range []struct {
		name  string
		opts  []ServerOption
		bound time.Duration
	}{
		{"read timeout", []ServerOption{WithReadTimeout(100 * time.Millisecond)}, 100 * time.Millisecond},
		{"no read timeout", nil, jsonRefusalTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(newAnalyzer(), tc.opts...)
			clientSide, serverSide := net.Pipe()
			defer clientSide.Close()
			done := make(chan struct{})
			go func() {
				defer close(done)
				srv.ServeConn(serverSide)
			}()
			start := time.Now()
			wrote := make(chan error, 1)
			go func() {
				_, err := clientSide.Write(line)
				wrote <- err
			}()
			select {
			case <-done:
			case <-time.After(tc.bound + 2*time.Second):
				t.Fatalf("ServeConn still blocked %v after a %d-byte JSON line", time.Since(start), len(line))
			}
			if err := <-wrote; err == nil {
				t.Error("the peer's write completed against a closed connection")
			}
			if el := time.Since(start); el < tc.bound {
				t.Errorf("refusal gave up after %v, before its %v bound", el, tc.bound)
			}
			if st := srv.Stats(); st.DaemonErrors != 1 {
				t.Errorf("refused JSON peer: %d errors, want 1", st.DaemonErrors)
			}
		})
	}
}

// TestControlVerbsInEnvelope: the control verbs ride JSON envelope frames
// and answer there; an envelope naming analyze or batch is an unknown op,
// refused on the healthy stream.
func TestControlVerbsInEnvelope(t *testing.T) {
	srv := NewServer(newAnalyzer())
	c := pipeFrames(t, srv)
	if resp := c.send(wireRequest{Op: "stats"}); resp.Stats == nil {
		t.Errorf("stats = %+v", resp)
	}
	if resp := c.send(wireRequest{Op: "traces"}); resp.Traces == nil {
		t.Errorf("traces = %+v", resp)
	}
	// No reloader and nothing staged: prepare and commit answer with their
	// own refusals.
	for _, verb := range []string{"prepare", "commit"} {
		if resp := c.send(wireRequest{Op: verb}); !strings.HasPrefix(resp.Err, verb+":") {
			t.Errorf("%s = %+v", verb, resp)
		}
	}
	if resp := c.send(wireRequest{Op: "abort"}); resp.Rollout == nil || resp.Rollout.State != "aborted" {
		t.Errorf("abort = %+v", resp)
	}
	for _, op := range []string{"", "analyze", "batch"} {
		c.raw(frameJSON, []byte(`{"op":"`+op+`","query":"`+benignQuery+`"}`))
		if resp, err := parseResponse(frameJSON, c.reply, &wireRequest{}); err != nil || !strings.Contains(resp.Err, "unknown op") {
			t.Errorf("envelope op %q = %+v, %v; want unknown op", op, resp, err)
		}
	}
	if resp := c.send(wireRequest{Query: attackQuery}); resp.Reply == nil || !resp.Reply.Attack {
		t.Errorf("analyze after the envelopes = %+v", resp)
	}
	if st := srv.Stats(); st.DaemonAnalyzeOps != 1 || st.Checks != 1 {
		t.Errorf("envelopes were analyzed: %+v", st)
	}
}

// kindCounter counts, on the server end of a pipe, the client writes by
// their first byte, which is a binary frame's kind. net.Pipe delivers each
// client frame in one Read.
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

// TestClientFramesBinaryFromFirstByte: a Client's first frame, and every
// one after it, is a binary frame of its request's kind, control verbs in
// the JSON envelope.
func TestClientFramesBinaryFromFirstByte(t *testing.T) {
	srv := NewServer(newAnalyzer())
	clientSide, serverSide := net.Pipe()
	counted := &kindCounter{Conn: serverSide, kinds: map[byte]int{}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(counted)
	}()
	c := NewClient(clientSide)
	ctx := context.Background()
	for i, q := range []string{benignQuery, attackQuery} {
		if r, err := c.AnalyzeSiteContext(ctx, "", q); err != nil || r.Attack != (q == attackQuery) || r.Tokens != nil {
			t.Fatalf("analyze %d: %+v, %v", i, r, err)
		}
	}
	results, err := c.AnalyzeBatch(ctx, []string{attackQuery, benignQuery})
	if err != nil || len(results) != 2 || !results[0].Reply.Attack || results[1].Reply.Attack {
		t.Fatalf("batch: %+v, %v", results, err)
	}
	if st, err := c.Stats(); err != nil || st.DaemonAnalyzeOps != 4 || st.DaemonBatchOps != 1 {
		t.Fatalf("stats: %+v, %v", st, err)
	}
	if _, err := c.Commit(ctx, ""); err == nil || c.Broken() {
		t.Errorf("commit with nothing staged: err %v, broken %v", err, c.Broken())
	}
	_ = c.Close()
	<-done
	want := map[byte]int{frameAnalyze: 2, frameBatch: 1, frameJSON: 2}
	if !reflect.DeepEqual(counted.kinds, want) {
		t.Errorf("frames by first byte %v, want %v", counted.kinds, want)
	}
}
