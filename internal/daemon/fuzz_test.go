package daemon

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

// FuzzServerWire throws arbitrary bytes at the daemon's wire decoder: no
// input may panic the server or wedge the connection handler. Valid
// requests embedded in the garbage are answered; everything else ends the
// connection cleanly. No reply ever carries a token stream, and an
// analyze or batch frame on a connection that has not latched no_tokens
// is refused.
func FuzzServerWire(f *testing.F) {
	f.Add([]byte("{\"op\":\"analyze\",\"query\":\"SELECT 1\",\"no_tokens\":true}\n"))
	f.Add([]byte("{\"op\":\"analyze\",\"query\":\"SELECT 1\"}\n"))
	f.Add([]byte("{\"query\":\"SELECT * FROM records WHERE ID=5 LIMIT 5\",\"no_tokens\":true}\n{\"op\":\"stats\"}\n"))
	f.Add([]byte("{\"op\":\"traces\"}\n"))
	f.Add([]byte("{\"op\":\"bogus\"}\n{\"query\":\"x\",\"timeout_ms\":-1,\"no_tokens\":true}\n"))
	f.Add([]byte("{\"query\":"))
	f.Add([]byte{0xff, 0xfe, '{', '}', '\n'})
	// Version-bearing frames: an unknown or garbage version pin must come
	// back as a refusal on the healthy stream, and the rollout verbs must
	// answer (or refuse) without desyncing the connection — the follow-up
	// frames on the same line prove the stream still parses.
	f.Add([]byte("{\"op\":\"analyze\",\"query\":\"SELECT 1\",\"version\":\"deadbeefdeadbeef\",\"no_tokens\":true}\n{\"query\":\"SELECT 1\"}\n"))
	f.Add([]byte("{\"op\":\"prepare\"}\n{\"op\":\"commit\",\"version\":\"nope\"}\n{\"op\":\"abort\"}\n{\"op\":\"stats\"}\n"))
	f.Add([]byte("{\"op\":\"batch\",\"version\":\"\\u0000\\ufffdgarbage\",\"batch\":[{\"query\":\"SELECT 1\"},{\"query\":\"SELECT 1\",\"version\":\"zzz\"}],\"no_tokens\":true}\n{\"op\":\"traces\"}\n"))
	f.Add([]byte("{\"op\":\"commit\",\"version\":\"aaaaaaaaaaaaaaaa\"}\n{\"op\":\"abort\"}\n{\"query\":\"SELECT 1\"}\n"))
	// no_tokens frames: true latches the connection, false leaves it
	// unlatched, and a wrong type is a malformed frame that ends the
	// connection like any other; the field is ignored on batch items.
	f.Add([]byte("{\"query\":\"SELECT 1\",\"no_tokens\":true}\n{\"query\":\"SELECT 1\"}\n{\"op\":\"batch\",\"batch\":[{\"query\":\"SELECT 1\"}]}\n"))
	f.Add([]byte("{\"query\":\"SELECT 1\",\"no_tokens\":false}\n{\"query\":\"SELECT 1\",\"no_tokens\":true}\n{\"op\":\"stats\"}\n"))
	f.Add([]byte("{\"query\":\"SELECT 1\",\"no_tokens\":\"yes\"}\n{\"query\":\"SELECT 1\"}\n"))
	f.Add([]byte("{\"op\":\"batch\",\"batch\":[{\"query\":\"SELECT 1\",\"no_tokens\":true}]}\n{\"query\":\"SELECT 1\"}\n"))
	f.Add([]byte("{\"op\":\"stats\"}\n{\"op\":\"batch\",\"batch\":[{\"query\":\"SELECT 1\"}]}\n{\"query\":\"SELECT 1\",\"binary\":true}\n"))
	const limit = 1 << 16
	analyzer := newAnalyzer()
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewServer(analyzer, WithMaxRequestBytes(limit))
		conn := &scriptedConn{in: bytes.NewReader(data)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeConn(conn)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("connection handler wedged on fuzz input")
		}
		if len(data) > limit {
			return // the request cap may end the connection mid-stream
		}
		// Replay the frames the server decoded, in order, against the
		// replies it sent: one reply per decodable frame up to the first
		// malformed one, and JSON only up to the binary acknowledgement.
		frames := json.NewDecoder(bytes.NewReader(data))
		replies := json.NewDecoder(&conn.out)
		latched := false
		for i := 0; ; i++ {
			var req wireRequest
			if frames.Decode(&req) != nil {
				var extra wireResponse
				if err := replies.Decode(&extra); err != io.EOF {
					t.Fatalf("reply %d answers no frame (%v): %+v", i, err, extra)
				}
				break
			}
			var resp wireResponse
			if err := replies.Decode(&resp); err != nil {
				t.Fatalf("frame %d got no reply: %v", i, err)
			}
			for _, r := range append([]wireResponse{resp}, resp.Batch...) {
				if r.Reply != nil && r.Reply.Tokens != nil {
					t.Fatalf("reply %d carries a token stream: %+v", i, r.Reply)
				}
			}
			latched = latched || req.NoTokens || req.Binary
			switch req.Op {
			case "", "analyze", "batch":
				if !latched && resp.Err != errUnlatched {
					t.Fatalf("unlatched %q frame answered %+v, want the latch refusal", req.Op, resp)
				}
			}
			if req.Binary {
				break
			}
		}
	})
}

// scriptedConn plays a fixed byte stream to the server and records what
// it writes back. Reads end in io.EOF once the stream is spent, as after a
// client's half-close, so the server answers every frame before it ends
// the connection.
type scriptedConn struct {
	net.Conn
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *scriptedConn) Read(p []byte) (int, error)      { return c.in.Read(p) }
func (c *scriptedConn) Write(p []byte) (int, error)     { return c.out.Write(p) }
func (c *scriptedConn) Close() error                    { return nil }
func (c *scriptedConn) SetReadDeadline(time.Time) error { return nil }

// FuzzBinaryFrame negotiates binary frames with a real handshake, then
// throws arbitrary bytes at the binary decoder: no input may panic the
// server or wedge the connection handler, and a first frame declaring a
// body over the request cap ends the connection without the client
// closing it. Each input also drives the request codec's round trip.
func FuzzBinaryFrame(f *testing.F) {
	const limit = 1 << 12
	frame := func(kind byte, body []byte) []byte {
		return finishFrame(append(beginFrame(nil), body...), kind)
	}
	analyze := frame(frameAnalyze, appendRequest(nil, &wireRequest{Query: "SELECT * FROM records WHERE ID=5 LIMIT 5", Site: "s"}))
	f.Add(analyze)
	f.Add(append([]byte{'\n'}, analyze...))
	f.Add(append(append([]byte{}, analyze...), analyze...))
	f.Add(frame(frameAnalyze, appendRequest(nil, &wireRequest{Query: "SELECT 1", Dialect: "postgres", Version: "zzz", TimeoutMs: -1})))
	f.Add(frame(frameBatch, appendBatchRequest(nil, &wireRequest{Version: "v", Batch: []wireRequest{{Query: "SELECT 1"}, {Query: "x", Site: "s"}}})))
	f.Add(frame(frameBatch, appendBatchRequest(nil, &wireRequest{})))
	f.Add(frame(frameJSON, []byte(`{"op":"stats"}`)))
	f.Add(frame(frameJSON, []byte(`{"op":"batch","batch":[{"query":"SELECT 1"}]}`)))
	f.Add(frame(frameJSON, []byte(`{"op":`)))
	f.Add(binary.AppendUvarint([]byte{frameAnalyze}, limit+1))
	f.Add([]byte{frameAnalyze, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{frameBatch, 3, 0, 0, 0xff})
	f.Add([]byte{0x7f, 0})
	f.Add([]byte{'\n', '\n', frameAnalyze, 2, 0, 0})
	analyzer := newAnalyzer()
	f.Fuzz(func(t *testing.T, data []byte) {
		req := wireRequest{Query: string(data), Site: string(data[len(data)/2:]), TimeoutMs: int64(len(data)) - 3}
		if got, err := parseRequest(frameAnalyze, appendRequest(nil, &req)); err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("request round trip: %+v, %v", got, err)
		}

		conn, br, done := handshake(t, NewServer(analyzer, WithMaxRequestBytes(limit)))
		// Drain replies so the synchronous pipe never blocks the server.
		go func() { _, _ = io.Copy(io.Discard, br) }()
		_ = conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		_, _ = conn.Write(data)
		head := bytes.TrimPrefix(data, []byte{'\n'})
		if len(head) > 1 {
			if n, k := binary.Uvarint(head[1:]); k > 0 && n > limit {
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("a frame over the cap did not end the connection")
				}
			}
		}
		_ = conn.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("connection handler wedged on fuzz input")
		}
	})
}
