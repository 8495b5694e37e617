package joza_test

// End-to-end coverage of the root-package remote deployment surface: a
// jozad-style server, a pooled transport, and the RemoteGuard with its
// degradation policies — everything an application outside this module
// can reach.

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"joza"
	"joza/internal/daemon"
	"joza/internal/fragments"
	"joza/internal/pti"
)

func startDaemon(t *testing.T) string {
	t.Helper()
	set := fragments.NewSet([]string{
		"SELECT * FROM records WHERE ID=",
		" LIMIT 5",
	})
	analyzer := pti.NewCached(pti.New(set), pti.CacheQueryAndStructure, 128)
	srv := daemon.NewServer(analyzer)
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
	return ln.Addr().String()
}

func TestRemoteGuardOverPool(t *testing.T) {
	addr := startDaemon(t)
	pool := joza.DialDaemonPool(addr, joza.DaemonPoolConfig{Size: 2, Timeout: time.Second})
	g := joza.NewRemoteGuard(pool)
	defer g.Close()

	v, err := g.Check(context.Background(), joza.Request{
		Query:  "SELECT * FROM records WHERE ID=5 LIMIT 5",
		Inputs: []joza.Input{{Source: "get", Name: "id", Value: "5"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Attack {
		t.Errorf("benign flagged: %v", v.Reasons())
	}
	payload := "-1 UNION SELECT username()"
	v, err = g.Check(context.Background(), joza.Request{
		Query:  "SELECT * FROM records WHERE ID=" + payload + " LIMIT 5",
		Inputs: []joza.Input{{Source: "get", Name: "id", Value: payload}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Attack {
		t.Error("attack missed over pooled transport")
	}
	snap := g.Metrics()
	if snap.Checks != 2 || snap.Attacks != 1 {
		t.Errorf("metrics = %+v", snap)
	}
}

func TestRemoteGuardFailOpenOutage(t *testing.T) {
	// A pool pointed at a daemon that never comes up.
	pool := joza.DialDaemonPool("127.0.0.1:1", joza.DaemonPoolConfig{
		Size: 1, Timeout: 200 * time.Millisecond, MaxAttempts: 2,
		BackoffMin: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	})
	var auditBuf strings.Builder
	g := joza.NewRemoteGuard(pool,
		joza.WithRemoteDegradeMode(joza.DegradeFailOpen),
		joza.WithRemoteAuditLog(&auditBuf))
	defer g.Close()

	payload := "-1 UNION SELECT username()"
	v, err := g.Check(context.Background(), joza.Request{
		Query:  "SELECT * FROM records WHERE ID=" + payload + " LIMIT 5",
		Inputs: []joza.Input{{Source: "get", Name: "id", Value: payload}},
	})
	if err != nil {
		t.Fatalf("fail-open must not surface the outage: %v", err)
	}
	if !v.NTI.Attack || v.PTI.Attack {
		t.Errorf("want NTI-only detection, got %v", v.DetectedBy())
	}
	if got := g.Metrics().DegradedChecks; got != 1 {
		t.Errorf("DegradedChecks = %d, want 1", got)
	}
	if !strings.Contains(auditBuf.String(), "NTI") {
		t.Errorf("audit log missing NTI block: %q", auditBuf.String())
	}
}

func TestRemoteGuardDialDaemonSingleConn(t *testing.T) {
	addr := startDaemon(t)
	c := joza.DialDaemonPool(addr, joza.DaemonPoolConfig{Size: 1})
	g := joza.NewRemoteGuard(c, joza.WithoutRemoteNTI(),
		joza.WithRemotePolicy(joza.PolicyErrorVirtualize))
	defer g.Close()
	err := g.Authorize(context.Background(), joza.Request{Query: "SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5"})
	if err == nil {
		t.Fatal("attack authorized")
	}
	var ae *joza.AttackError
	if !errors.As(err, &ae) || ae.Policy != joza.PolicyErrorVirtualize {
		t.Errorf("err = %v", err)
	}
}
