package daemon

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"joza/internal/core"
	"joza/internal/sqltoken"
	"joza/internal/trace"
)

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

// TestBinaryFrameLengthCap: a frame whose declared body length is exactly
// the request cap is served. One byte more is discarded unread, without an
// allocation, and refused in a reply of the frame's own kind on the
// healthy stream, which then serves the next frame. A head declaring a
// body over the cap that never arrives ends the connection unanswered.
func TestBinaryFrameLengthCap(t *testing.T) {
	const limit = 256
	srv := NewServer(newAnalyzer(), WithMaxRequestBytes(limit))
	c := pipeFrames(t, srv)
	// flags, a 2-byte length and the query fill the body exactly.
	req := wireRequest{Query: "SELECT 1 " + strings.Repeat("-", limit-3-9)}
	atCap := appendRequest(nil, &req)
	if len(atCap) != limit {
		t.Fatalf("test body is %d bytes, want %d", len(atCap), limit)
	}
	c.raw(frameAnalyze, atCap)
	if resp, err := parseResponse(frameAnalyze, c.reply, &req); err != nil || resp.Reply == nil {
		t.Fatalf("frame at the cap not served: %+v, %v", resp, err)
	}

	over := append(atCap, 0)
	for _, kind := range []byte{frameAnalyze, frameBatch, frameJSON} {
		c.raw(kind, over)
		resp, err := parseResponse(kind, c.reply, &wireRequest{})
		if err != nil || !strings.Contains(resp.Err, "257 bytes exceeds the 256-byte cap") {
			t.Errorf("kind %d over the cap: %+v, %v; want a refusal", kind, resp, err)
		}
	}
	c.raw(frameAnalyze, atCap)
	if resp, err := parseResponse(frameAnalyze, c.reply, &req); err != nil || resp.Reply == nil {
		t.Fatalf("frame at the cap after the refusals: %+v, %v", resp, err)
	}
	if st := srv.Stats(); st.DaemonErrors != 3 || st.DaemonAnalyzeOps != 2 {
		t.Errorf("%d errors and %d analyze ops, want 3 refusals and the 2 frames at the cap", st.DaemonErrors, st.DaemonAnalyzeOps)
	}

	br := bufio.NewReader(zeros{})
	if n := testing.AllocsPerRun(10, func() { _ = discardBody(br, 1<<20) }); n != 0 {
		t.Errorf("discarding a 1 MiB body allocates %.1f times, want 0", n)
	}

	conn := &scriptedConn{in: bytes.NewReader(append(binary.AppendUvarint([]byte{frameAnalyze}, limit+1), atCap[:10]...))}
	srv.ServeConn(conn)
	if conn.out.Len() != 0 {
		t.Errorf("a body over the cap that never arrived was answered: %q", conn.out.Bytes())
	}
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
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

// TestAppendRequestBodyAllocations pins that building an analyze frame
// allocates nothing: the request stays on its caller's stack, although a
// control verb's request is marshaled as JSON on another branch.
func TestAppendRequestBodyAllocations(t *testing.T) {
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() {
		req := wireRequest{Query: benignQuery, Site: "plugin:a", TimeoutMs: 250}
		buf, _, _ = appendRequestBody(buf[:0], &req)
	}); n != 0 {
		t.Errorf("appendRequestBody allocates %.1f times per analyze frame, want 0", n)
	}
}
