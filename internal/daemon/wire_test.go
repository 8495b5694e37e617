package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"joza/internal/core"
	"joza/internal/engine"
	"joza/internal/nti"
	"joza/internal/profile"
)

// wireGolden is a frame and the reply line a server answered it with
// before the no_tokens field existed, token stream included. A current
// server refuses the frame as it stands, and answers it on a latched
// connection with the recorded reply minus its "tokens" member.
type wireGolden struct{ frame, reply string }

// loadWireGolden reads testdata/flagless_replies.jsonl: alternating frame
// and reply lines, recorded from a server that always sent tokens.
func loadWireGolden(t *testing.T) []wireGolden {
	t.Helper()
	data, err := os.ReadFile("testdata/flagless_replies.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines = lines[:len(lines)-1] // the empty remainder after the last newline
	if len(lines)%2 != 0 {
		t.Fatalf("golden has %d lines, want frame/reply pairs", len(lines))
	}
	var out []wireGolden
	for i := 0; i < len(lines); i += 2 {
		out = append(out, wireGolden{strings.TrimSuffix(lines[i], "\n"), lines[i+1]})
	}
	return out
}

// goldenServer is the server the golden replies were recorded from: a
// versioned snapshot and a learning profile recorder, so replies carry
// every optional field.
func goldenServer() *Server {
	a := newAnalyzer()
	return NewServer(a, WithSnapshot(NewSnapshot(a, engine.ProfileStage{Recorder: profile.NewRecorder()}, "0123456789abcdef")))
}

// rawConn serves one pipe connection from srv and returns a function that
// writes a frame and reads back one raw reply line.
func rawConn(t *testing.T, srv *Server) func(frame string) string {
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
	r := bufio.NewReader(clientSide)
	return func(frame string) string {
		t.Helper()
		errc := make(chan error, 1)
		go func() {
			_, err := clientSide.Write([]byte(frame + "\n"))
			errc <- err
		}()
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		return line
	}
}

// tokensMember matches the "tokens" member of an encoded reply. The golden
// queries contain no ']' inside a token text.
var tokensMember = regexp.MustCompile(`,"tokens":\[[^\]]*\]`)

// refusalLine is the reply to an analyze or batch frame on a connection
// that has not latched no_tokens.
const refusalLine = `{"error":"no_tokens latch missing: this daemon sends no token stream; send \"no_tokens\":true on the connection's first analyze or batch frame and lex the query yourself"}` + "\n"

// TestFlaglessRepliesByteIdentical pins the refusal a peer that never
// sends no_tokens now gets: each recorded flagless frame, the version
// mismatch and the batch included, is answered with the same error line
// naming the latch, and the stream stays healthy for the next frame.
func TestFlaglessRepliesByteIdentical(t *testing.T) {
	send := rawConn(t, goldenServer())
	for _, g := range loadWireGolden(t) {
		if got := send(g.frame); got != refusalLine {
			t.Errorf("frame %s\n got: %s\nwant: %s", g.frame, got, refusalLine)
		}
	}
}

// TestNoTokensLatchesForConnection: the first frame carrying no_tokens
// latches the connection, and every reply from then on — that frame's
// included, flagless later frames and batch items too — is the legacy
// reply minus its "tokens" member, byte for byte. The latch is per
// connection.
func TestNoTokensLatchesForConnection(t *testing.T) {
	golden := loadWireGolden(t)
	send := rawConn(t, goldenServer())
	first := strings.TrimSuffix(golden[0].frame, "}") + `,"no_tokens":true}`
	if got, want := send(first), tokensMember.ReplaceAllString(golden[0].reply, ""); got != want {
		t.Errorf("flagged frame\n got: %s\nwant: %s", got, want)
	}
	for _, g := range golden {
		want := tokensMember.ReplaceAllString(g.reply, "")
		if got := send(g.frame); got != want {
			t.Errorf("frame %s after the latch\n got: %s\nwant: %s", g.frame, got, want)
		}
	}
	// A separate connection has not latched: it is refused.
	other := rawConn(t, goldenServer())
	if got := other(golden[0].frame); got != refusalLine {
		t.Errorf("latch leaked across connections: %s", got)
	}
}

// TestFlaglessFramesRefused: before the latch, the control verbs are
// served and analyze and batch frames are refused on the healthy stream,
// each refusal counted as an error; the same connection then serves a
// latched frame.
func TestFlaglessFramesRefused(t *testing.T) {
	srv := goldenServer()
	send := rawConn(t, srv)
	decode := func(line string) wireResponse {
		t.Helper()
		var resp wireResponse
		if err := json.Unmarshal([]byte(line), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := decode(send(`{"op":"stats"}`)); resp.Stats == nil {
		t.Errorf("stats before the latch = %+v", resp)
	}
	if resp := decode(send(`{"op":"traces"}`)); resp.Traces == nil {
		t.Errorf("traces before the latch = %+v", resp)
	}
	// No reloader and nothing staged: prepare and commit answer with their
	// own refusals, not the latch's.
	for _, verb := range []string{"prepare", "commit"} {
		if resp := decode(send(`{"op":"` + verb + `"}`)); !strings.HasPrefix(resp.Err, verb+":") {
			t.Errorf("%s before the latch = %+v", verb, resp)
		}
	}
	if resp := decode(send(`{"op":"abort"}`)); resp.Rollout == nil || resp.Rollout.State != "aborted" {
		t.Errorf("abort before the latch = %+v", resp)
	}
	errs := srv.Stats().DaemonErrors
	for _, frame := range []string{
		`{"query":"` + benignQuery + `"}`,
		`{"op":"batch","batch":[{"query":"` + benignQuery + `"}]}`,
	} {
		if got := send(frame); got != refusalLine {
			t.Errorf("flagless %s\n got: %s\nwant: %s", frame, got, refusalLine)
		}
	}
	st := srv.Stats()
	if got := st.DaemonErrors - errs; got != 2 {
		t.Errorf("errorOps counted %d refusals, want 2", got)
	}
	if st.DaemonAnalyzeOps != 0 || st.DaemonBatchOps != 0 || st.Checks != 0 {
		t.Errorf("refused frames were analyzed: %+v", st)
	}
	resp := decode(send(`{"query":"` + attackQuery + `","no_tokens":true}`))
	if resp.Reply == nil || !resp.Reply.Attack || resp.Reply.Tokens != nil {
		t.Errorf("latched frame after the refusals = %+v", resp)
	}
}

// TestHandshakeAckBytes pins the JSON reply that acknowledges binary
// frames, for a reply, a refusal and a batch: the acknowledgement comes
// first, and the reply carries no token stream.
func TestHandshakeAckBytes(t *testing.T) {
	const reason = `"detail":"critical token not contained in any trusted fragment"}`
	for _, c := range []struct{ frame, want string }{{
		`{"query":"` + attackQuery + `","site":"plugin:x","no_tokens":true,"binary":true}`,
		`{"binary":true,"reply":{"attack":true,"reasons":[` +
			`{"token":{"kind":5,"text":"-","start":31,"end":32},` + reason + `,` +
			`{"token":{"kind":1,"text":"UNION","start":34,"end":39},` + reason + `,` +
			`{"token":{"kind":1,"text":"SELECT","start":40,"end":46},` + reason + `,` +
			`{"token":{"kind":10,"text":"username","start":47,"end":55},` + reason + `,` +
			`{"token":{"kind":6,"text":"(","start":55,"end":56},` + reason + `,` +
			`{"token":{"kind":6,"text":")","start":56,"end":57},` + reason + `],` +
			`"profile":{"outcome":"learned","site":"plugin:x","skeleton":"SELECT * FROM RECORDS WHERE ID = - ? UNION SELECT USERNAME ( ) LIMIT ?"},` +
			`"version":"0123456789abcdef"}}`,
	}, {
		`{"query":"SELECT 1","dialect":"postgres","no_tokens":true,"binary":true}`,
		`{"error":"dialect mismatch: request is postgres, daemon analyzes mysql","binary":true}`,
	}, {
		`{"op":"batch","batch":[{"query":"` + benignQuery + `","site":"s"},{"query":"SELECT 1","version":"x"}],"no_tokens":true,"binary":true}`,
		`{"binary":true,"batch":[` +
			`{"reply":{"attack":false,"profile":{"outcome":"learned","site":"s","skeleton":"SELECT * FROM RECORDS WHERE ID = ? LIMIT ?"},"version":"0123456789abcdef"}},` +
			`{"error":"version mismatch: request pinned to snapshot \"x\", daemon serves \"0123456789abcdef\""}]}`,
	}} {
		// Each on its own connection: after the acknowledgement the
		// connection speaks binary frames.
		if got := rawConn(t, goldenServer())(c.frame); got != c.want+"\n" {
			t.Errorf("frame %s\n got: %s\nwant: %s", c.frame, got, c.want)
		}
	}
}

// frameRecorder is a fake daemon that records every frame a client writes
// and answers each with a fixed reply line.
func frameRecorder(t *testing.T, reply string) (*Client, func() []string) {
	t.Helper()
	clientSide, serverSide := net.Pipe()
	frames := make(chan string, 16)
	go func() {
		r := bufio.NewReader(serverSide)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				close(frames)
				return
			}
			frames <- strings.TrimSuffix(line, "\n")
			if _, err := serverSide.Write([]byte(reply + "\n")); err != nil {
				close(frames)
				return
			}
		}
	}()
	c := NewClient(clientSide)
	return c, func() []string {
		_ = c.Close()
		_ = serverSide.Close()
		var out []string
		for f := range frames {
			out = append(out, f)
		}
		return out
	}
}

// TestClientFramesSetNoTokensOnce pins the client side of the contract:
// a connection's first analyze or batch frame is the flagless frame plus
// "no_tokens":true and "binary":true, and every other frame to a server
// that never acknowledges binary is byte-identical to the flagless
// protocol.
func TestClientFramesSetNoTokensOnce(t *testing.T) {
	ctx := context.Background()
	const q = `{"query":"` + benignQuery + `"`

	c, frames := frameRecorder(t, `{"reply":{"attack":false},"batch":[{"reply":{"attack":false}}]}`)
	if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AnalyzeSiteContext(ctx, "s", benignQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AnalyzeBatch(ctx, []string{benignQuery}); err != nil {
		t.Fatal(err)
	}
	want := []string{
		q + `,"no_tokens":true,"binary":true}`,
		q + `,"site":"s"}`,
		`{"op":"batch","batch":[` + q + `}]}`,
	}
	if got := frames(); !reflect.DeepEqual(got, want) {
		t.Errorf("analyze-first frames\n got: %q\nwant: %q", got, want)
	}

	c, frames = frameRecorder(t, `{"batch":[{"reply":{"attack":false}}],"reply":{"attack":false}}`)
	if _, err := c.AnalyzeBatch(ctx, []string{benignQuery}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); err != nil {
		t.Fatal(err)
	}
	want = []string{`{"op":"batch","batch":[` + q + `}],"no_tokens":true,"binary":true}`, q + `}`}
	if got := frames(); !reflect.DeepEqual(got, want) {
		t.Errorf("batch-first frames\n got: %q\nwant: %q", got, want)
	}

	// A control verb neither carries nor spends the flag.
	c, frames = frameRecorder(t, `{"stats":{},"reply":{"attack":false}}`)
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); err != nil {
		t.Fatal(err)
	}
	want = []string{`{"op":"stats"}`, q + `,"no_tokens":true,"binary":true}`}
	if got := frames(); !reflect.DeepEqual(got, want) {
		t.Errorf("stats-first frames\n got: %q\nwant: %q", got, want)
	}
}

// oldServerConn is the server side of a connection to a daemon that
// predates no_tokens and binary frames. The binary flag is cut from every
// frame before the server reads it, so the server never acknowledges it
// and stays on JSON, and every reply gains a token stream, as an old
// server always sent one. The stream is a fixed one, not the query's lex:
// a current client lexes for itself and must ignore it, whatever it
// holds. net.Pipe delivers each client frame in one Read, and the server
// writes each reply in one Write.
type oldServerConn struct{ net.Conn }

func (c oldServerConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	return copy(p, bytes.ReplaceAll(p[:n], []byte(`,"binary":true`), nil)), err
}

func (c oldServerConn) Write(p []byte) (int, error) {
	withTokens := bytes.ReplaceAll(p, []byte(`"reply":{`), []byte(`"reply":{"tokens":[{"kind":1,"text":"SELECT","start":0,"end":6}],`))
	if _, err := c.Conn.Write(withTokens); err != nil {
		return 0, err
	}
	return len(p), nil
}

// countingConn counts the replies read through it that carried a
// non-empty token stream.
type countingConn struct {
	net.Conn
	tokenReplies *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tokenReplies.Add(int64(bytes.Count(p[:n], []byte(`"tokens":[{`))))
	return n, err
}

// TestNewClientOldServerSameVerdicts: a current hybrid client talking to
// a daemon that ignores no_tokens and always sends the token stream
// reaches exactly the verdicts it reaches against a current daemon.
func TestNewClientOldServerSameVerdicts(t *testing.T) {
	var tokenReplies atomic.Int64
	hybridOver := func(old bool) *HybridClient {
		clientSide, serverSide := net.Pipe()
		srv := NewServer(newAnalyzer())
		var sc net.Conn = serverSide
		if old {
			sc = oldServerConn{serverSide}
		}
		go srv.ServeConn(sc)
		var cc net.Conn = clientSide
		if old {
			cc = countingConn{clientSide, &tokenReplies}
		}
		h := NewHybridClient(NewClient(cc), nti.MustNew(), core.PolicyTerminate)
		t.Cleanup(func() { _ = h.Close() })
		return h
	}
	current, old := hybridOver(false), hybridOver(true)
	cases := []struct {
		query  string
		inputs []nti.Input
	}{
		{benignQuery, []nti.Input{{Source: "get", Name: "id", Value: "5"}}},
		{attackQuery, []nti.Input{{Source: "get", Name: "id", Value: "-1 UNION SELECT username()"}}},
		{attackQuery, nil},
		{"SELECT * FROM records WHERE ID=5 OR 1=1 LIMIT 5", []nti.Input{{Source: "get", Name: "id", Value: "5 OR 1=1"}}},
		{"", nil},
	}
	for _, c := range cases {
		want, err := current.Check(context.Background(), engine.Request{Query: c.query, Inputs: c.inputs})
		if err != nil {
			t.Fatal(err)
		}
		got, err := old.Check(context.Background(), engine.Request{Query: c.query, Inputs: c.inputs})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: old-server verdict\n %+v\nwant %+v", c.query, got, want)
		}
	}
	if tokenReplies.Load() == 0 {
		t.Error("the simulated old server sent no token stream")
	}
}
