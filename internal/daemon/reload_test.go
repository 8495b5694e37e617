package daemon

import (
	"context"
	"net"
	"testing"

	"joza/internal/engine"
	"joza/internal/fragments"
	"joza/internal/pti"
)

func TestSetAnalyzerHotSwap(t *testing.T) {
	oldSet := fragments.NewSet([]string{"SELECT a FROM t WHERE id="})
	srv := NewServer(pti.NewCached(pti.New(oldSet), pti.CacheNone, 1))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
	})

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A query from a newly installed plugin is initially untrusted.
	newPluginQuery := "SELECT b FROM u WHERE id=5"
	reply, err := c.AnalyzeSiteContext(context.Background(), "", newPluginQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Attack {
		t.Fatal("unknown query should be flagged before reload")
	}

	// The installer picked up the plugin; the analyzer is swapped.
	newSet := fragments.NewSet([]string{
		"SELECT a FROM t WHERE id=",
		"SELECT b FROM u WHERE id=",
	})
	srv.SetSnapshot(NewSnapshot(pti.NewCached(pti.New(newSet), pti.CacheNone, 1), engine.ProfileStage{}, ""))

	reply, err = c.AnalyzeSiteContext(context.Background(), "", newPluginQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Attack {
		t.Error("query should be trusted after fragment reload")
	}
	// The original application's queries keep working.
	reply, err = c.AnalyzeSiteContext(context.Background(), "", "SELECT a FROM t WHERE id=1")
	if err != nil {
		t.Fatal(err)
	}
	if reply.Attack {
		t.Error("original query flagged after reload")
	}
}

func TestServerRejectsGarbageBytes(t *testing.T) {
	srv := NewServer(newAnalyzer())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		_ = srv.Close()
		<-done
	})

	// A client that speaks garbage gets dropped without wedging the
	// server; a well-behaved client afterwards works.
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("\x00\xffnot json at all\n{{{{")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	_, _ = raw.Read(buf) // server closes; read unblocks
	_ = raw.Close()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); err != nil {
		t.Fatalf("server wedged after garbage client: %v", err)
	}
}
