package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"joza/internal/daemon"
	"joza/internal/trace"
)

func TestParseCacheMode(t *testing.T) {
	for _, mode := range []string{"none", "query", "query+structure"} {
		if _, err := parseCacheMode(mode); err != nil {
			t.Errorf("%s: %v", mode, err)
		}
	}
	if _, err := parseCacheMode("bogus"); err == nil {
		t.Error("bad mode must error")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing -src/-selftest must error")
	}
	if err := run([]string{"-src", "/no/such/dir"}); err == nil {
		t.Error("bad src must error")
	}
	if err := run([]string{"-selftest", "-cache", "bogus"}); err == nil {
		t.Error("bad cache mode must error")
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Error("bad flag must error")
	}
}

// TestSigtermDrainsAndExitsCleanly boots a real jozad, proves it serves,
// then delivers SIGTERM as an init system would: run must drain and
// return nil so main exits 0.
func TestSigtermDrainsAndExitsCleanly(t *testing.T) {
	ready := make(chan string, 1)
	testReady = func(daemonAddr, _ string) { ready <- daemonAddr }
	defer func() { testReady = nil }()
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{"-selftest", "-addr", "127.0.0.1:0", "-drain", "5s"})
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not come up")
	}
	c := daemon.DialPool(addr, daemon.PoolConfig{Size: 1})
	if _, err := c.AnalyzeSiteContext(context.Background(), "", "SELECT * FROM records WHERE ID=5 LIMIT 5"); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run after SIGTERM = %v, want nil (exit 0)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
}

// TestObservabilityEndToEnd boots a real jozad (selftest fragment set)
// with the observability listener, drives analyze traffic through the
// wire protocol, and checks the HTTP surface: Prometheus /metrics with
// counters and per-stage histograms, /healthz, /debug/pprof/ and /traces.
func TestObservabilityEndToEnd(t *testing.T) {
	ready := make(chan [2]string, 1)
	testReady = func(daemonAddr, obsAddr string) {
		ready <- [2]string{daemonAddr, obsAddr}
	}
	defer func() { testReady = nil }()
	go func() {
		// The selftest probe supplies one benign and one attack analyze.
		if err := run([]string{"-selftest", "-addr", "127.0.0.1:0", "-obs", "127.0.0.1:0"}); err != nil {
			t.Errorf("run: %v", err)
		}
	}()
	var addrs [2]string
	select {
	case addrs = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not come up")
	}
	daemonAddr, obsAddr := addrs[0], addrs[1]
	if obsAddr == "" {
		t.Fatal("observability listener did not bind")
	}

	// Analyze through the wire so /metrics has deterministic traffic on
	// top of the probe's.
	c := daemon.DialPool(daemonAddr, daemon.PoolConfig{Size: 1})
	defer c.Close()
	if _, err := c.AnalyzeSiteContext(context.Background(), "", "SELECT * FROM records WHERE ID=5 LIMIT 5"); err != nil {
		t.Fatal(err)
	}
	reply, err := c.AnalyzeSiteContext(context.Background(), "", "SELECT * FROM records WHERE ID=-1 UNION SELECT username() LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Attack {
		t.Fatal("attack not flagged")
	}
	if reply.Trace == nil {
		t.Fatal("default tracing did not attach a span to the reply")
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + obsAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"joza_checks_total",
		"joza_attacks_total",
		`joza_daemon_ops_total{op="analyze"}`,
		"# TYPE joza_check_duration_seconds histogram",
		"# TYPE joza_stage_duration_seconds histogram",
		`joza_stage_duration_seconds_bucket{stage="lex"`,
		`joza_stage_duration_seconds_bucket{stage="pti_cover"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if code, body := get("/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", code)
	}

	code, body = get("/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces status %d", code)
	}
	var dump trace.Dump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/traces not JSON: %v", err)
	}
	if len(dump.Recent) == 0 || len(dump.Notable) == 0 {
		t.Fatalf("/traces = %d recent, %d notable; want traffic", len(dump.Recent), len(dump.Notable))
	}

	// The wire protocol's traces verb serves the same rings.
	wire, err := c.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if wire.Started == 0 || len(wire.Notable) == 0 {
		t.Fatalf("traces verb = %+v, want traffic", wire)
	}
}
