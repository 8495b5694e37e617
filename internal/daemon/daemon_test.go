package daemon

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"

	"joza/internal/core"
	"joza/internal/engine"
	"joza/internal/fragments"
	"joza/internal/nti"
	"joza/internal/pti"
)

func newAnalyzer() *pti.Cached {
	set := fragments.NewSet([]string{
		"SELECT * FROM records WHERE ID=",
		" LIMIT 5",
	})
	return pti.NewCached(pti.New(set), pti.CacheQueryAndStructure, 128)
}

const (
	benignQuery = "SELECT * FROM records WHERE ID=5 LIMIT 5"
	attackQuery = "SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5"
)

func TestDirectTransport(t *testing.T) {
	d := NewDirect(newAnalyzer())
	defer d.Close()
	reply, err := d.AnalyzeSiteContext(context.Background(), "", benignQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Attack {
		t.Error("benign flagged")
	}
	// Direct replies are token-free: the caller's NTI lexes for itself.
	if len(reply.Tokens) != 0 || reply.TokenStream() != nil {
		t.Errorf("direct reply carried tokens: %+v", reply.Tokens)
	}
	reply, err = d.AnalyzeSiteContext(context.Background(), "", attackQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Attack || len(reply.Reasons) == 0 {
		t.Errorf("attack reply = %+v", reply)
	}
}

func startTCPServer(t *testing.T, analyzer *pti.Cached) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(analyzer)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
	})
	return ln.Addr().String()
}

func TestRemoteTransportTCP(t *testing.T) {
	addr := startTCPServer(t, newAnalyzer())
	c := DialPool(addr, PoolConfig{Size: 1})
	defer c.Close()
	reply, err := c.AnalyzeSiteContext(context.Background(), "", attackQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Attack {
		t.Error("attack missed over TCP")
	}
	// The reply carries no token stream.
	if len(reply.Tokens) != 0 || reply.TokenStream() != nil {
		t.Errorf("client received tokens: %+v", reply.Tokens)
	}

	// A raw frame peer gets the same verdict, its evidence positions intact
	// over the round trip, and no token stream.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp := (&frameConn{t: t, conn: conn, br: bufio.NewReader(conn)}).send(wireRequest{Query: attackQuery})
	if resp.Reply == nil || !resp.Reply.Attack || len(resp.Reply.Tokens) != 0 {
		t.Fatalf("raw frame reply = %+v", resp)
	}
	if r := resp.Reply.Reasons; len(r) == 0 || r[0].Token.Text != "-" || r[0].Token.Start != strings.Index(attackQuery, "-") {
		t.Errorf("raw frame reasons = %+v", r)
	}
}

func TestSpawnPipe(t *testing.T) {
	c, stop := SpawnPipe(newAnalyzer())
	defer stop()
	reply, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Attack {
		t.Error("benign flagged over pipe")
	}
	reply, err = c.AnalyzeSiteContext(context.Background(), "", attackQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Attack {
		t.Error("attack missed over pipe")
	}
}

func TestTransportsAgree(t *testing.T) {
	queries := []string{benignQuery, attackQuery, "DELETE FROM records", ""}
	direct := NewDirect(newAnalyzer())
	pipe, stop := SpawnPipe(newAnalyzer())
	defer stop()
	addr := startTCPServer(t, newAnalyzer())
	remote := DialPool(addr, PoolConfig{Size: 1})
	defer remote.Close()
	for _, q := range queries {
		want, err := direct.AnalyzeSiteContext(context.Background(), "", q)
		if err != nil {
			t.Fatal(err)
		}
		for name, tr := range map[string]Transport{"pipe": pipe, "tcp": remote} {
			got, err := tr.AnalyzeSiteContext(context.Background(), "", q)
			if err != nil {
				t.Fatalf("%s %q: %v", name, q, err)
			}
			if got.Attack != want.Attack || len(got.Tokens) != len(want.Tokens) {
				t.Errorf("%s %q: got %+v, want %+v", name, q, got, want)
			}
		}
	}
}

func TestHybridClient(t *testing.T) {
	c, stop := SpawnPipe(newAnalyzer())
	defer stop()
	h := NewHybridClient(c, nti.MustNew(), core.PolicyTerminate)

	// Benign.
	v, err := h.Check(context.Background(), engine.Request{
		Query:  benignQuery,
		Inputs: []nti.Input{{Source: "get", Name: "id", Value: "5"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Attack {
		t.Errorf("benign flagged: %v", v.Reasons())
	}
	if err := h.Authorize(context.Background(), engine.Request{Query: benignQuery}); err != nil {
		t.Errorf("Authorize benign: %v", err)
	}

	// Attack detected by both (NTI lexing the query itself).
	payload := "-1 UNION SELECT username() "
	q := strings.TrimSuffix("SELECT * FROM records WHERE ID="+payload, " ") + " LIMIT 5"
	v, err = h.Check(context.Background(), engine.Request{
		Query:  q,
		Inputs: []nti.Input{{Source: "get", Name: "id", Value: strings.TrimSpace(payload)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.NTI.Attack || !v.PTI.Attack {
		t.Errorf("detected by %v, want both", v.DetectedBy())
	}
	err = h.Authorize(context.Background(), engine.Request{Query: q})
	if err == nil {
		t.Fatal("Authorize allowed attack")
	}
	var ae *core.AttackError
	if !strings.Contains(err.Error(), "blocked") {
		t.Errorf("err = %v (%T, %v)", err, err, ae)
	}
}

func TestHybridClientNTIDisabled(t *testing.T) {
	d := NewDirect(newAnalyzer())
	h := NewHybridClient(d, nil, core.PolicyErrorVirtualize)
	v, err := h.Check(context.Background(), engine.Request{Query: attackQuery})
	if err != nil {
		t.Fatal(err)
	}
	if !v.PTI.Attack || v.NTI.Attack {
		t.Errorf("detected by %v", v.DetectedBy())
	}
	if err := h.Close(); err != nil {
		t.Error(err)
	}
}

func TestHybridClientTransportError(t *testing.T) {
	c, stop := SpawnPipe(newAnalyzer())
	stop() // closed transport
	h := NewHybridClient(c, nti.MustNew(), core.PolicyTerminate)
	if _, err := h.Check(context.Background(), engine.Request{Query: benignQuery}); err == nil {
		t.Error("want transport error")
	}
}

func TestServerConcurrentClients(t *testing.T) {
	addr := startTCPServer(t, newAnalyzer())
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := DialPool(addr, PoolConfig{Size: 1})
			defer c.Close()
			for i := 0; i < 50; i++ {
				reply, err := c.AnalyzeSiteContext(context.Background(), "", attackQuery)
				if err != nil {
					errs <- err
					return
				}
				if !reply.Attack {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(newAnalyzer())
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := srv.Serve(ln); err == nil {
		t.Error("Serve after Close should fail")
	}
}

func TestDialError(t *testing.T) {
	p := DialPool("127.0.0.1:1", PoolConfig{Size: 1, MaxAttempts: 1})
	defer p.Close()
	if _, err := p.AnalyzeSiteContext(context.Background(), "", benignQuery); !errors.Is(err, ErrUnavailable) {
		t.Errorf("check against a closed port: err = %v, want ErrUnavailable", err)
	}
}

func TestDaemonCachesSpeedSecondRequest(t *testing.T) {
	analyzer := newAnalyzer()
	d := NewDirect(analyzer)
	if _, err := d.AnalyzeSiteContext(context.Background(), "", benignQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AnalyzeSiteContext(context.Background(), "", benignQuery); err != nil {
		t.Fatal(err)
	}
	if analyzer.Stats().QueryHits == 0 {
		t.Error("query cache not consulted through daemon")
	}
}
