package daemon

import (
	"bufio"
	"context"
	"encoding/json"
	"joza/internal/engine"
	"net"
	"strings"
	"testing"

	"joza/internal/core"
	"joza/internal/fragments"
	"joza/internal/nti"
	"joza/internal/pti"
	"joza/internal/sqltoken"
)

// newDialectAnalyzer builds a PTI analyzer whose fragments and lexing run
// under d.
func newDialectAnalyzer(d sqltoken.Dialect) *pti.Cached {
	set := fragments.NewSetDialect(d, []string{
		"SELECT * FROM records WHERE ID=",
		" LIMIT 5",
	})
	return pti.NewCached(pti.New(set, pti.WithDialect(d)), pti.CacheQueryAndStructure, 128)
}

// TestWireDialectOmitsMySQL pins the wire compatibility rule: the default
// dialect never appears in a frame, so default clients stay byte-identical
// to the pre-dialect protocol.
func TestWireDialectOmitsMySQL(t *testing.T) {
	if got := wireDialect(sqltoken.MySQL); got != "" {
		t.Errorf("wireDialect(MySQL) = %q, want empty", got)
	}
	if got := wireDialect(sqltoken.Postgres); got != "postgres" {
		t.Errorf("wireDialect(Postgres) = %q", got)
	}
}

// TestClientDialectMismatchRidesHealthyStream pins the server refusal: a
// Postgres-stamped request to a MySQL daemon fails with a per-request
// error, and the same connection keeps serving matched requests.
func TestClientDialectMismatchRidesHealthyStream(t *testing.T) {
	c, stop := SpawnPipe(newAnalyzer())
	defer stop()
	c.SetDialect(sqltoken.Postgres)
	if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); err == nil || !strings.Contains(err.Error(), "dialect mismatch") {
		t.Fatalf("cross-dialect analyze error = %v, want dialect mismatch", err)
	}
	if c.Broken() {
		t.Fatal("dialect refusal broke the connection")
	}
	c.SetDialect(sqltoken.MySQL)
	reply, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Attack {
		t.Error("benign flagged after dialect refusal")
	}
}

// TestPostgresDaemonEndToEnd runs a matched Postgres client/daemon pair
// and pins that a default (MySQL) client is refused by it.
func TestPostgresDaemonEndToEnd(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	srv := NewServer(newDialectAnalyzer(sqltoken.Postgres))
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	c := NewClient(clientSide)
	defer func() {
		_ = c.Close()
		_ = serverSide.Close()
		<-done
	}()

	// Default client: absent dialect means MySQL, which this daemon refuses.
	if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); err == nil || !strings.Contains(err.Error(), "dialect mismatch") {
		t.Fatalf("MySQL request to Postgres daemon: err = %v", err)
	}

	c.SetDialect(sqltoken.Postgres)
	reply, err := c.AnalyzeSiteContext(context.Background(), "", "SELECT * FROM records WHERE ID=$1 LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if reply.Attack {
		t.Errorf("benign $1 query flagged by Postgres daemon: %+v", reply.Reasons)
	}
}

// TestWireDialectRawFrames drives raw frames over a pipe — an old client
// (no dialect field) and corrupt dialect values — and pins that every
// refusal rides the still-healthy stream.
func TestWireDialectRawFrames(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	srv := NewServer(newAnalyzer())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	defer func() {
		_ = clientSide.Close()
		_ = serverSide.Close()
		<-done
	}()
	enc := json.NewEncoder(clientSide)
	dec := json.NewDecoder(bufio.NewReader(clientSide))

	roundTrip := func(frame map[string]any) wireResponse {
		t.Helper()
		var resp wireResponse
		errc := make(chan error, 1)
		go func() { errc <- enc.Encode(frame) }()
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// An old client's frame has no dialect field at all: it means MySQL and
	// analyzes normally on a MySQL daemon.
	if resp := roundTrip(map[string]any{"query": benignQuery}); resp.Err != "" || resp.Reply == nil {
		t.Fatalf("old-client frame refused: %+v", resp)
	}
	// Unknown dialect names are refused per request.
	if resp := roundTrip(map[string]any{"query": benignQuery, "dialect": "oracle"}); resp.Err == "" || !strings.Contains(resp.Err, "oracle") {
		t.Fatalf("unknown dialect: %+v", resp)
	}
	// A mixed batch: the plain item analyzes, the cross-dialect and unknown
	// items each fail only their own slot.
	resp := roundTrip(map[string]any{"op": "batch", "batch": []map[string]any{
		{"query": benignQuery},
		{"query": benignQuery, "dialect": "postgres"},
		{"query": benignQuery, "dialect": "oracle"},
	}})
	if resp.Err != "" || len(resp.Batch) != 3 {
		t.Fatalf("batch response = %+v", resp)
	}
	if resp.Batch[0].Err != "" || resp.Batch[0].Reply == nil {
		t.Errorf("plain item failed: %+v", resp.Batch[0])
	}
	if !strings.Contains(resp.Batch[1].Err, "dialect mismatch") {
		t.Errorf("cross-dialect item err = %q", resp.Batch[1].Err)
	}
	if !strings.Contains(resp.Batch[2].Err, "oracle") {
		t.Errorf("unknown-dialect item err = %q", resp.Batch[2].Err)
	}
	// An outer-frame dialect is the default for items that set none.
	resp = roundTrip(map[string]any{"op": "batch", "dialect": "postgres", "batch": []map[string]any{
		{"query": benignQuery},
	}})
	if resp.Err != "" || len(resp.Batch) != 1 || !strings.Contains(resp.Batch[0].Err, "dialect mismatch") {
		t.Fatalf("outer-frame dialect not inherited: %+v", resp)
	}
	// The connection survived all of it.
	if resp := roundTrip(map[string]any{"query": benignQuery}); resp.Err != "" || resp.Reply == nil {
		t.Fatalf("stream unhealthy after refusals: %+v", resp)
	}
}

// TestPoolDialect pins the pool-level stamping: a Postgres pool against a
// Postgres daemon analyzes (including through the batch verb), and against
// a MySQL daemon fails without burning reconnection attempts.
func TestPoolDialect(t *testing.T) {
	addr := startTCPServer(t, newDialectAnalyzer(sqltoken.Postgres))
	pool := NewPool(func() (net.Conn, error) { return net.Dial("tcp", addr) },
		PoolConfig{Size: 1, Dialect: sqltoken.Postgres})
	defer pool.Close()
	if _, err := pool.AnalyzeSiteContext(context.Background(), "", "SELECT * FROM records WHERE ID=$1 LIMIT 5"); err != nil {
		t.Fatalf("matched pool analyze: %v", err)
	}
	results, err := pool.AnalyzeBatch(t.Context(), []string{benignQuery, benignQuery})
	if err != nil {
		t.Fatalf("matched pool batch: %v", err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("batch item %d: %v", i, r.Err)
		}
	}

	myAddr := startTCPServer(t, newAnalyzer())
	crossed := NewPool(func() (net.Conn, error) { return net.Dial("tcp", myAddr) },
		PoolConfig{Size: 1, Dialect: sqltoken.Postgres})
	defer crossed.Close()
	if _, err := crossed.AnalyzeSiteContext(context.Background(), "", benignQuery); err == nil || !strings.Contains(err.Error(), "dialect mismatch") {
		t.Fatalf("cross-dialect pool analyze err = %v", err)
	}
	if crossed.Dials() != 1 {
		t.Errorf("dialect refusal redialed: %d dials", crossed.Dials())
	}
}

// TestHybridClientDialect runs the full Postgres hybrid — daemon-side PTI,
// application-side NTI, dialect stamped end to end — and pins that benign
// Postgres traffic passes while the daemon refusal path degrades per the
// configured policy.
func TestHybridClientDialect(t *testing.T) {
	clientSide, serverSide := net.Pipe()
	srv := NewServer(newDialectAnalyzer(sqltoken.Postgres))
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	c := NewClient(clientSide)
	c.SetDialect(sqltoken.Postgres)
	defer func() {
		_ = serverSide.Close()
		<-done
	}()

	h := NewHybridClient(c, nti.MustNew(nti.WithDialect(sqltoken.Postgres)), core.PolicyTerminate,
		WithDialect(sqltoken.Postgres))
	defer h.Close()
	v, err := h.Check(context.Background(), engine.Request{
		Query:  "SELECT * FROM records WHERE ID=$1 LIMIT 5",
		Inputs: []nti.Input{{Source: "get", Name: "id", Value: "5"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Attack {
		t.Errorf("benign Postgres check flagged: %v", v.Reasons())
	}
	v, err = h.Check(context.Background(), engine.Request{
		Query:  attackQuery,
		Inputs: []nti.Input{{Source: "get", Name: "id", Value: "-1 UNION SELECT username()"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Attack {
		t.Error("attack missed by Postgres hybrid")
	}
}

// TestHybridClientRefusesNTIDialectMismatch: the application-side NTI
// lexes queries itself, so an analyzer built for another dialect than the
// client's would silently change NTI verdicts. The engine refuses every
// check of such a client through its failure mode instead, before any
// round trip.
func TestHybridClientRefusesNTIDialectMismatch(t *testing.T) {
	d := NewDirect(newAnalyzer())
	h := NewHybridClient(d, nti.MustNew(nti.WithDialect(sqltoken.Postgres)), core.PolicyTerminate)
	defer h.Close()
	v, err := h.Check(context.Background(), engine.Request{
		Query:  benignQuery,
		Inputs: []nti.Input{{Source: "get", Name: "id", Value: "5"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Attack || len(v.PTI.Reasons) == 0 || !strings.Contains(v.PTI.Reasons[0].Detail, "NTI analyzer dialect postgres") {
		t.Errorf("mismatched NTI dialect: verdict = %+v, want a fail-closed refusal", v)
	}
	if got := h.Metrics().OverBudgetChecks; got != 1 {
		t.Errorf("OverBudgetChecks = %d, want the refusal counted", got)
	}
}
