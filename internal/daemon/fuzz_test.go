package daemon

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

// scriptedConn plays a fixed byte stream to the server and records what
// it writes back. Reads end in io.EOF once the stream is spent, as after a
// client's half-close, so the server answers every frame before it ends
// the connection.
type scriptedConn struct {
	net.Conn
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *scriptedConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *scriptedConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *scriptedConn) Close() error                     { return nil }
func (c *scriptedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptedConn) SetWriteDeadline(time.Time) error { return nil }

// fuzzLimit is the request cap of the fuzzed server: small, so that
// over-cap frames are cheap to reach.
const fuzzLimit = 1 << 12

func fuzzFrame(kind byte, body []byte) []byte {
	return finishFrame(append(beginFrame(nil), body...), kind)
}

func analyzeFrame(req wireRequest) []byte {
	return fuzzFrame(frameAnalyze, appendRequest(nil, &req))
}

func batchFrame(req wireRequest) []byte {
	return fuzzFrame(frameBatch, appendBatchRequest(nil, &req))
}

func envelopeFrame(js string) []byte { return fuzzFrame(frameJSON, []byte(js)) }

func script(frames ...[]byte) []byte { return bytes.Join(frames, nil) }

// FuzzBinaryFrame plays arbitrary bytes to the daemon from the first byte
// of a connection, seeded with single frames at the edges of the framing:
// lengths over the cap or past a uvarint, unknown kinds, truncated bodies.
// fuzzWire states the invariant.
func FuzzBinaryFrame(f *testing.F) {
	records := analyzeFrame(wireRequest{Query: "SELECT * FROM records WHERE ID=5 LIMIT 5", Site: "s"})
	f.Add(records)
	f.Add(append([]byte{'\n'}, records...))
	f.Add(script(records, records))
	f.Add(analyzeFrame(wireRequest{Query: "SELECT 1", Dialect: "postgres", Version: "zzz", TimeoutMs: -1}))
	f.Add(batchFrame(wireRequest{Version: "v", Batch: []wireRequest{{Query: "SELECT 1"}, {Query: "x", Site: "s"}}}))
	f.Add(batchFrame(wireRequest{}))
	f.Add(envelopeFrame(`{"op":"stats"}`))
	f.Add(envelopeFrame(`{"op":"batch","batch":[{"query":"SELECT 1"}]}`))
	f.Add(envelopeFrame(`{"op":`))
	f.Add(binary.AppendUvarint([]byte{frameAnalyze}, fuzzLimit+1))
	f.Add([]byte{frameAnalyze, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{frameBatch, 3, 0, 0, 0xff})
	f.Add([]byte{0x7f, 0})
	f.Add([]byte{'\n', '\n', frameAnalyze, 2, 0, 0})
	fuzzWire(f)
}

// FuzzServerWire plays arbitrary bytes to the daemon from the first byte
// of a connection, seeded with multi-frame scripts: control verbs,
// refusals and version pins between requests must leave the stream in
// sync, so the frames behind them are still answered. A raw JSON line
// must get the JSON-peer refusal. fuzzWire states the invariant.
func FuzzServerWire(f *testing.F) {
	records := analyzeFrame(wireRequest{Query: "SELECT * FROM records WHERE ID=5 LIMIT 5", Site: "s"})
	one := analyzeFrame(wireRequest{Query: "SELECT 1"})
	f.Add(one)
	f.Add([]byte("{\"op\":\"analyze\",\"query\":\"SELECT 1\"}\n"))
	f.Add(script(records, envelopeFrame(`{"op":"stats"}`)))
	f.Add(envelopeFrame(`{"op":"traces"}`))
	f.Add(script(envelopeFrame(`{"op":"bogus"}`), analyzeFrame(wireRequest{Query: "x", TimeoutMs: -1})))
	f.Add(one[:len(one)-3])
	f.Add([]byte{0xff, 0xfe, '{', '}', '\n'})
	// An unknown or garbage version pin is refused on the healthy stream,
	// and the rollout verbs answer (or refuse) without desyncing it: the
	// frames behind them still parse.
	f.Add(script(analyzeFrame(wireRequest{Query: "SELECT 1", Version: "deadbeefdeadbeef"}), one))
	f.Add(script(envelopeFrame(`{"op":"prepare"}`), envelopeFrame(`{"op":"commit","version":"nope"}`), envelopeFrame(`{"op":"abort"}`), envelopeFrame(`{"op":"stats"}`)))
	f.Add(script(batchFrame(wireRequest{Version: "\x00\ufffdgarbage", Batch: []wireRequest{{Query: "SELECT 1"}, {Query: "SELECT 1", Version: "zzz"}}}), envelopeFrame(`{"op":"traces"}`)))
	f.Add(script(envelopeFrame(`{"op":"commit","version":"aaaaaaaaaaaaaaaa"}`), envelopeFrame(`{"op":"abort"}`), one))
	f.Add(script(one, one, batchFrame(wireRequest{Batch: []wireRequest{{Query: "SELECT 1"}}})))
	f.Add(script(one, []byte("{\"query\":\"SELECT 1\"}\n"), envelopeFrame(`{"op":"stats"}`)))
	f.Add(script(fuzzFrame(frameAnalyze, append([]byte{0x80}, one[3:]...)), one))
	f.Add(script(batchFrame(wireRequest{Batch: []wireRequest{{Query: "SELECT 1"}}}), one))
	f.Add(script(envelopeFrame(`{"op":"stats"}`), fuzzFrame(frameBatch, make([]byte, fuzzLimit+1)), batchFrame(wireRequest{Batch: []wireRequest{{Query: "SELECT 1"}}}), one))
	fuzzWire(f)
}

// fuzzWire runs the shared body of the wire fuzzers: no input may panic
// the server or wedge the connection handler. Replaying the script frame
// by frame against the server's output, every decodable frame gets exactly
// one reply of its own kind, in order, that the client codec parses. A
// frame declaring a body over the request cap is refused once the body
// has arrived, and ends the connection when it never does. The first
// incomplete or malformed frame ends the connection unanswered, except one
// opening with '{', which gets the JSON-peer refusal line. Each input also
// drives the request codec's round trip.
func fuzzWire(f *testing.F) {
	analyzer := newAnalyzer()
	f.Fuzz(func(t *testing.T, data []byte) {
		req := wireRequest{Query: string(data), Site: string(data[len(data)/2:]), TimeoutMs: int64(len(data)) - 3}
		if got, err := parseRequest(frameAnalyze, appendRequest(nil, &req)); err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("request round trip: %+v, %v", got, err)
		}

		conn := &scriptedConn{in: bytes.NewReader(data)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			NewServer(analyzer, WithMaxRequestBytes(fuzzLimit)).ServeConn(conn)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("connection handler wedged on fuzz input")
		}

		frames := bufio.NewReader(bytes.NewReader(data))
		replies := bufio.NewReader(&conn.out)
		for i := 0; ; i++ {
			kind, n, err := readFrameHead(frames)
			over := n > fuzzLimit
			var body []byte
			switch {
			case err != nil:
			case over:
				err = discardBody(frames, n)
			default:
				body, err = readBody(frames, nil, n)
			}
			var req wireRequest
			if err == nil && !over {
				if kind == frameJSON {
					err = json.Unmarshal(body, &req)
				} else {
					req, err = parseRequest(kind, body)
				}
			}
			if err != nil {
				var want string
				if kind == '{' {
					want = jsonPeerRefusal
				}
				if rest, _ := io.ReadAll(replies); string(rest) != want {
					t.Fatalf("frame %d (kind %d) does not decode (%v), yet the server sent %q, want %q", i, kind, err, rest, want)
				}
				return
			}
			got, rn, err := readFrameHead(replies)
			if err == nil && got != kind {
				t.Fatalf("frame %d of kind %d answered with kind %d", i, kind, got)
			}
			var resp wireResponse
			if err == nil {
				if body, err = readBody(replies, nil, rn); err == nil {
					resp, err = parseResponse(kind, body, &req)
				}
			}
			if err != nil {
				t.Fatalf("frame %d of kind %d got no reply that parses: %v", i, kind, err)
			}
			if over && resp.Err == "" {
				t.Fatalf("frame %d of %d bytes over the %d-byte cap answered %+v, want a refusal", i, n, fuzzLimit, resp)
			}
		}
	})
}
