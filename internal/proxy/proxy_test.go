package proxy

import (
	"context"
	"errors"
	"net"
	"reflect"
	"testing"

	"joza"
	"joza/internal/daemon"
	"joza/internal/fragments"
	"joza/internal/minidb"
	"joza/internal/pti"
)

const appSource = `<?php
$q = "SELECT id, title FROM posts WHERE id=$id LIMIT 5";
$q2 = "SELECT id, title FROM missing WHERE id=$id";
`

func newDB(t *testing.T) *minidb.DB {
	t.Helper()
	db := minidb.New("app")
	db.MustExec("CREATE TABLE posts (id INT, title TEXT)")
	db.MustExec("INSERT INTO posts VALUES (1, 'Hello'), (2, 'World')")
	return db
}

func newGuard(t *testing.T, opts ...joza.Option) *joza.Guard {
	t.Helper()
	base := []joza.Option{joza.WithFragments(joza.FragmentsFromSource(appSource))}
	g, err := joza.New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// startProxy starts a proxy over the backend and returns its address.
func startProxy(t *testing.T, p *Proxy) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = p.Serve(ln)
	}()
	t.Cleanup(func() {
		_ = p.Close()
		<-done
	})
	return ln.Addr().String()
}

func TestProxyPassesBenign(t *testing.T) {
	p := New(newGuard(t), LocalBackend{DB: newDB(t)})
	addr := startProxy(t, p)
	c, err := minidb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.QueryWithInputs("SELECT id, title FROM posts WHERE id=1 LIMIT 5",
		[]minidb.WireInput{{Source: "get", Name: "id", Value: "1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1] != "Hello" {
		t.Errorf("rows = %v", res.Rows)
	}
	if blocked, passed := p.Stats(); blocked != 0 || passed != 1 {
		t.Errorf("stats = %d, %d", blocked, passed)
	}
}

func TestProxyBlocksAttack(t *testing.T) {
	p := New(newGuard(t), LocalBackend{DB: newDB(t)})
	addr := startProxy(t, p)
	c, err := minidb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := "-1 OR 1=1"
	_, err = c.QueryWithInputs("SELECT id, title FROM posts WHERE id="+payload+" LIMIT 5",
		[]minidb.WireInput{{Source: "get", Name: "id", Value: payload}})
	if !errors.Is(err, minidb.ErrBlocked) {
		t.Fatalf("err = %v, want ErrBlocked", err)
	}
	if blocked, _ := p.Stats(); blocked != 1 {
		t.Errorf("blocked = %d", blocked)
	}
}

func TestProxyBlocksSecondOrderWithoutInputs(t *testing.T) {
	// No inputs accompany the query (second-order); PTI still blocks.
	p := New(newGuard(t), LocalBackend{DB: newDB(t)})
	addr := startProxy(t, p)
	c, err := minidb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query("SELECT id, title FROM posts WHERE id=1 OR 1=1 -- LIMIT 5")
	if !errors.Is(err, minidb.ErrBlocked) {
		t.Fatalf("err = %v, want ErrBlocked", err)
	}
}

// TestProxyFrontDoorsAgree fronts the same database with a proxy over an
// in-process Guard and a proxy over a RemoteGuard on an in-process
// daemon: benign, injected, second-order and failing queries must get
// identical responses from both.
func TestProxyFrontDoorsAgree(t *testing.T) {
	frags := joza.FragmentsFromSource(appSource)
	direct := daemon.NewDirect(pti.NewCached(pti.New(fragments.NewSet(frags)), pti.CacheQueryAndStructure, 64))
	remote := joza.NewRemoteGuard(direct)
	defer remote.Close()
	db := newDB(t)
	local := New(newGuard(t), LocalBackend{DB: db})
	viaDaemon := New(remote, LocalBackend{DB: db})
	in := func(v string) []minidb.WireInput { return []minidb.WireInput{{Source: "get", Name: "id", Value: v}} }
	for _, req := range []minidb.Request{
		{Query: "SELECT id, title FROM posts WHERE id=1 LIMIT 5", Inputs: in("1")},
		{Query: "SELECT id, title FROM posts WHERE id=-1 OR 1=1 LIMIT 5", Inputs: in("-1 OR 1=1")},
		{Query: "SELECT id, title FROM posts WHERE id=-1 UNION SELECT title, title FROM posts", Inputs: in("-1 UNION SELECT title, title FROM posts")},
		{Query: "SELECT id, title FROM posts WHERE id=1 OR 1=1 -- LIMIT 5"},
		{Query: "SELECT id, title FROM missing WHERE id=1", Inputs: in("1")},
	} {
		want := local.process(context.Background(), &req)
		got := viaDaemon.process(context.Background(), &req)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%q: Guard proxy answered %+v, RemoteGuard proxy %+v", req.Query, want, got)
		}
	}
	lb, lp := local.Stats()
	rb, rp := viaDaemon.Stats()
	if lb != rb || lp != rp || lb != 3 || lp != 2 {
		t.Errorf("blocked/passed: Guard proxy %d/%d, RemoteGuard proxy %d/%d, want 3/2 on both", lb, lp, rb, rp)
	}
}

func TestProxyErrorVirtualization(t *testing.T) {
	g := newGuard(t, joza.WithPolicy(joza.PolicyErrorVirtualize))
	p := New(g, LocalBackend{DB: newDB(t)})
	addr := startProxy(t, p)
	c, err := minidb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := "-1 OR 1=1"
	_, err = c.QueryWithInputs("SELECT id, title FROM posts WHERE id="+payload,
		[]minidb.WireInput{{Source: "get", Name: "id", Value: payload}})
	var ee *minidb.ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v (%T), want database-style error", err, err)
	}
	if errors.Is(err, minidb.ErrBlocked) {
		t.Error("error virtualization must not reveal blocking")
	}
}

func TestProxyRemoteBackend(t *testing.T) {
	// Full chain: client -> proxy -> upstream minidb server.
	db := newDB(t)
	upstreamLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	upstream := minidb.NewServer(db)
	upDone := make(chan struct{})
	go func() {
		defer close(upDone)
		_ = upstream.Serve(upstreamLn)
	}()
	t.Cleanup(func() {
		_ = upstream.Close()
		<-upDone
	})

	backend := NewRemoteBackend(upstreamLn.Addr().String())
	t.Cleanup(func() { _ = backend.Close() })
	p := New(newGuard(t), backend)
	addr := startProxy(t, p)

	c, err := minidb.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.QueryWithInputs("SELECT id, title FROM posts WHERE id=2 LIMIT 5",
		[]minidb.WireInput{{Source: "get", Name: "id", Value: "2"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1] != "World" {
		t.Errorf("rows = %v", res.Rows)
	}

	// Attack through the full chain.
	payload := "-1 UNION SELECT title, title FROM posts"
	_, err = c.QueryWithInputs("SELECT id, title FROM posts WHERE id="+payload,
		[]minidb.WireInput{{Source: "get", Name: "id", Value: payload}})
	if !errors.Is(err, minidb.ErrBlocked) {
		t.Fatalf("err = %v, want ErrBlocked", err)
	}

	// Database errors on app-originated queries pass through unchanged.
	_, err = c.QueryWithInputs("SELECT id, title FROM missing WHERE id=1",
		[]minidb.WireInput{{Source: "get", Name: "id", Value: "1"}})
	var ee *minidb.ExecError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want ExecError", err)
	}
}

func TestRemoteBackendUpstreamDown(t *testing.T) {
	backend := NewRemoteBackend("127.0.0.1:1")
	resp := backend.Execute(context.Background(), &minidb.Request{Query: "SELECT 1"})
	if resp.Error == "" {
		t.Error("want upstream error")
	}
}

func TestProxyCloseIdempotent(t *testing.T) {
	p := New(newGuard(t), LocalBackend{DB: newDB(t)})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := p.Serve(ln); err == nil {
		t.Error("Serve after Close should fail")
	}
}
