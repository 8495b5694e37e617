package daemon

import (
	"io"
	"net"
	"testing"
	"time"
)

// FuzzServerWire throws arbitrary bytes at the daemon's wire decoder: no
// input may panic the server or wedge the connection handler. Valid
// requests embedded in the garbage are answered; everything else ends the
// connection cleanly.
func FuzzServerWire(f *testing.F) {
	f.Add([]byte("{\"op\":\"analyze\",\"query\":\"SELECT 1\"}\n"))
	f.Add([]byte("{\"query\":\"SELECT * FROM records WHERE ID=5 LIMIT 5\"}\n{\"op\":\"stats\"}\n"))
	f.Add([]byte("{\"op\":\"traces\"}\n"))
	f.Add([]byte("{\"op\":\"bogus\"}\n{\"query\":\"x\",\"timeout_ms\":-1}\n"))
	f.Add([]byte("{\"query\":"))
	f.Add([]byte{0xff, 0xfe, '{', '}', '\n'})
	// Version-bearing frames: an unknown or garbage version pin must come
	// back as a refusal on the healthy stream, and the rollout verbs must
	// answer (or refuse) without desyncing the connection — the follow-up
	// frames on the same line prove the stream still parses.
	f.Add([]byte("{\"op\":\"analyze\",\"query\":\"SELECT 1\",\"version\":\"deadbeefdeadbeef\"}\n{\"query\":\"SELECT 1\"}\n"))
	f.Add([]byte("{\"op\":\"prepare\"}\n{\"op\":\"commit\",\"version\":\"nope\"}\n{\"op\":\"abort\"}\n{\"op\":\"stats\"}\n"))
	f.Add([]byte("{\"op\":\"batch\",\"version\":\"\\u0000\\ufffdgarbage\",\"batch\":[{\"query\":\"SELECT 1\"},{\"query\":\"SELECT 1\",\"version\":\"zzz\"}]}\n{\"op\":\"traces\"}\n"))
	f.Add([]byte("{\"op\":\"commit\",\"version\":\"aaaaaaaaaaaaaaaa\"}\n{\"op\":\"abort\"}\n{\"query\":\"SELECT 1\"}\n"))
	// no_tokens frames: true latches the connection token-free, false
	// leaves it flagless, and a wrong type is a malformed frame that ends
	// the connection like any other; the field is ignored on batch items.
	f.Add([]byte("{\"query\":\"SELECT 1\",\"no_tokens\":true}\n{\"query\":\"SELECT 1\"}\n{\"op\":\"batch\",\"batch\":[{\"query\":\"SELECT 1\"}]}\n"))
	f.Add([]byte("{\"query\":\"SELECT 1\",\"no_tokens\":false}\n{\"query\":\"SELECT 1\",\"no_tokens\":true}\n{\"op\":\"stats\"}\n"))
	f.Add([]byte("{\"query\":\"SELECT 1\",\"no_tokens\":\"yes\"}\n{\"query\":\"SELECT 1\"}\n"))
	f.Add([]byte("{\"op\":\"batch\",\"batch\":[{\"query\":\"SELECT 1\",\"no_tokens\":true}]}\n{\"query\":\"SELECT 1\"}\n"))
	analyzer := newAnalyzer()
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewServer(analyzer, WithMaxRequestBytes(1<<16))
		clientSide, serverSide := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeConn(serverSide)
		}()
		// Drain replies so the synchronous pipe never blocks the server's
		// encoder.
		go func() { _, _ = io.Copy(io.Discard, clientSide) }()
		_ = clientSide.SetWriteDeadline(time.Now().Add(2 * time.Second))
		_, _ = clientSide.Write(data)
		_ = clientSide.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("connection handler wedged on fuzz input")
		}
	})
}
