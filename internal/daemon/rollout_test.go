package daemon

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"joza/internal/engine"
	"joza/internal/profile"
	"joza/internal/sqltoken"
	"joza/internal/trace"
)

func testSnapshot(version string) *engine.Snapshot {
	return NewSnapshot(newAnalyzer(), engine.ProfileStage{}, version)
}

func staticReloader(snap *engine.Snapshot, err error) func(context.Context) (*engine.Snapshot, error) {
	return func(context.Context) (*engine.Snapshot, error) { return snap, err }
}

// TestRolloutVerbsSingleDaemon drives the two-phase verbs end to end on
// one daemon: commit with nothing staged is refused, prepare stages
// without touching the serving snapshot, a wrong version pin is refused
// with the staged snapshot kept, the right pin swaps it in, and abort is
// idempotent. Every refusal rides the healthy stream — the same
// connection keeps serving.
func TestRolloutVerbsSingleDaemon(t *testing.T) {
	next := testSnapshot("bbbbbbbbbbbbbbbb")
	addr, srv, _ := startShardServer(t,
		WithSnapshot(testSnapshot("aaaaaaaaaaaaaaaa")),
		WithReloader(staticReloader(next, nil)),
	)
	c := DialPool(addr, PoolConfig{Size: 1})
	defer c.Close()
	ctx := context.Background()

	if _, err := c.Commit(ctx, ""); err == nil || !strings.Contains(err.Error(), "nothing staged") {
		t.Fatalf("commit before prepare: got %v, want nothing-staged refusal", err)
	}
	r, err := c.Prepare(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r.State != "staged" || r.Version != next.Version {
		t.Fatalf("prepare reply = %+v", r)
	}
	if got := srv.Version(); got != "aaaaaaaaaaaaaaaa" {
		t.Fatalf("prepare must not swap the serving snapshot; serving %q", got)
	}
	if _, err := c.Commit(ctx, "0000000000000000"); err == nil || !strings.Contains(err.Error(), "staged snapshot is") {
		t.Fatalf("wrong version pin: got %v, want refusal", err)
	}
	r, err = c.Commit(ctx, next.Version)
	if err != nil {
		t.Fatal(err)
	}
	if r.State != "committed" || r.Version != next.Version {
		t.Fatalf("commit reply = %+v", r)
	}
	if got := srv.Version(); got != next.Version {
		t.Fatalf("serving version after commit = %q, want %q", got, next.Version)
	}
	reply, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Version != next.Version {
		t.Fatalf("reply version = %q, want %q", reply.Version, next.Version)
	}
	// Abort with nothing staged still succeeds (idempotent cleanup).
	r, err = c.Abort(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r.State != "aborted" {
		t.Fatalf("abort reply = %+v", r)
	}
}

// TestPrepareRefusalsKeepServing covers the prepare failure modes: no
// reloader configured, a reloader error, and a snapshot that fails its
// self-test (nil analyzer; a profile store trained under another
// dialect, the corrupt-store case). None of them may disturb the serving
// snapshot or the connection, and none may leave anything staged.
func TestPrepareRefusalsKeepServing(t *testing.T) {
	pgStore := profile.NewRecorderDialect(sqltoken.Postgres).Store()
	cases := []struct {
		name    string
		opts    []ServerOption
		wantErr string
	}{
		{"no reloader", nil, "no reloader"},
		{
			"reloader error",
			[]ServerOption{WithReloader(staticReloader(nil, errors.New("source tree unreadable")))},
			"source tree unreadable",
		},
		{
			"nil analyzer",
			[]ServerOption{WithReloader(staticReloader(&engine.Snapshot{}, nil))},
			"no analyzer",
		},
		{
			"corrupt store",
			[]ServerOption{WithReloader(staticReloader(NewSnapshot(newAnalyzer(), engine.ProfileStage{Store: pgStore}, ""), nil))},
			"dialect",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]ServerOption{WithSnapshot(testSnapshot("aaaaaaaaaaaaaaaa"))}, tc.opts...)
			addr, srv, _ := startShardServer(t, opts...)
			c := DialPool(addr, PoolConfig{Size: 1})
			defer c.Close()
			ctx := context.Background()
			if _, err := c.Prepare(ctx); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("prepare: got %v, want error containing %q", err, tc.wantErr)
			}
			if got := srv.Version(); got != "aaaaaaaaaaaaaaaa" {
				t.Fatalf("serving snapshot disturbed: %q", got)
			}
			if _, err := c.Commit(ctx, ""); err == nil || !strings.Contains(err.Error(), "nothing staged") {
				t.Fatalf("failed prepare left state staged: commit returned %v", err)
			}
			if _, err := c.AnalyzeSiteContext(context.Background(), "", benignQuery); err != nil {
				t.Fatalf("connection unhealthy after refusals: %v", err)
			}
		})
	}
}

// TestVersionPinRefusedOnHealthyStream sends raw wire frames so the pin
// semantics are tested at the protocol level: a request pinned to a
// version the daemon does not serve is refused with an error reply — not
// a dropped connection — for single analyzes and per item inside batches
// (where the frame-level pin defaults onto items), and the same
// connection then serves an unpinned and a correctly pinned request.
func TestVersionPinRefusedOnHealthyStream(t *testing.T) {
	const version = "cccccccccccccccc"
	addr, _, _ := startShardServer(t, WithSnapshot(testSnapshot(version)))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := &frameConn{t: t, conn: conn, br: bufio.NewReader(conn)}

	resp := c.send(wireRequest{Op: "analyze", Query: benignQuery, Version: "bogus"})
	if !strings.Contains(resp.Err, "version mismatch") {
		t.Fatalf("pinned to bogus version: err = %q, want version mismatch", resp.Err)
	}
	resp = c.send(wireRequest{Op: "batch", Version: "bogus", Batch: []wireRequest{{Query: benignQuery}, {Query: benignQuery, Version: version}}})
	if resp.Err != "" {
		t.Fatalf("batch with stale frame pin refused whole: %q", resp.Err)
	}
	if len(resp.Batch) != 2 {
		t.Fatalf("batch replies = %d, want 2", len(resp.Batch))
	}
	if !strings.Contains(resp.Batch[0].Err, "version mismatch") {
		t.Fatalf("item inheriting the frame pin: err = %q", resp.Batch[0].Err)
	}
	if resp.Batch[1].Err != "" || resp.Batch[1].Reply == nil {
		t.Fatalf("item overriding with the right pin should pass: %+v", resp.Batch[1])
	}
	resp = c.send(wireRequest{Query: benignQuery})
	if resp.Err != "" || resp.Reply == nil {
		t.Fatalf("unpinned request after refusals: %+v", resp)
	}
	if resp.Reply.Version != version {
		t.Fatalf("reply version = %q, want %q", resp.Reply.Version, version)
	}
	resp = c.send(wireRequest{Query: benignQuery, Version: version})
	if resp.Err != "" || resp.Reply == nil {
		t.Fatalf("correctly pinned request: %+v", resp)
	}
}

// TestVersionlessWireInteropByteIdentical pins the reply of a daemon with
// no snapshot version: a benign analyze reply is the flags byte, an empty
// version and no reasons, byte for byte, and decodes to an empty version,
// which clients read as "unknown", never as a mismatch.
func TestVersionlessWireInteropByteIdentical(t *testing.T) {
	addr, _, _ := startShardServer(t) // plain NewServer: unversioned
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := &frameConn{t: t, conn: conn, br: bufio.NewReader(conn)}
	resp := c.send(wireRequest{Query: benignQuery})
	if resp.Reply == nil || resp.Reply.Version != "" {
		t.Fatalf("analyze frame answered %+v, want an unversioned reply", resp)
	}
	if want := []byte{0, 0, 0}; !bytes.Equal(c.reply, want) {
		t.Errorf("unversioned reply body %q, want %q", c.reply, want)
	}
}

// TestRolloutConvergesFleet is the happy path: every shard stages the
// same version, the coordinator commits fleet-wide, and afterwards every
// daemon serves the new version, which is also the client's notion of the
// fleet's current one.
func TestRolloutConvergesFleet(t *testing.T) {
	const next = "dddddddddddddddd"
	var srvs []*Server
	var addrs []string
	for i := 0; i < 3; i++ {
		addr, srv, _ := startShardServer(t,
			WithSnapshot(testSnapshot("aaaaaaaaaaaaaaaa")),
			WithReloader(staticReloader(testSnapshot(next), nil)),
		)
		addrs = append(addrs, addr)
		srvs = append(srvs, srv)
	}
	sp, err := DialShardedPool(addrs, fastShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	report, err := sp.Rollout(context.Background())
	if err != nil {
		t.Fatalf("rollout: %v (report %+v)", err, report)
	}
	if report.Version != next {
		t.Fatalf("report version = %q, want %q", report.Version, next)
	}
	for _, sh := range report.Shards {
		if sh.State != "committed" || sh.Version != next {
			t.Fatalf("shard %s = %+v, want committed at %s", sh.Shard, sh, next)
		}
	}
	for i, srv := range srvs {
		if got := srv.Version(); got != next {
			t.Fatalf("shard %d serves %q after rollout, want %q", i, got, next)
		}
	}
	if got := sp.CurrentVersion(); got != next {
		t.Fatalf("CurrentVersion = %q, want %q", got, next)
	}
	for _, q := range queriesForShards(t, sp) {
		reply, err := sp.AnalyzeSiteContext(context.Background(), "", q)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Version != next {
			t.Fatalf("post-rollout reply version = %q", reply.Version)
		}
	}
}

// TestRolloutFailedPrepareAbortsFleet: one shard cannot build the next
// generation (its profile store is corrupt), so nothing commits anywhere —
// the healthy shard's staged state is aborted, every shard keeps serving
// the old version, and checks keep flowing.
func TestRolloutFailedPrepareAbortsFleet(t *testing.T) {
	const old = "aaaaaaaaaaaaaaaa"
	pgStore := profile.NewRecorderDialect(sqltoken.Postgres).Store()
	addr0, srv0, _ := startShardServer(t,
		WithSnapshot(testSnapshot(old)),
		WithReloader(staticReloader(testSnapshot("eeeeeeeeeeeeeeee"), nil)),
	)
	addr1, srv1, _ := startShardServer(t,
		WithSnapshot(testSnapshot(old)),
		WithReloader(staticReloader(NewSnapshot(newAnalyzer(), engine.ProfileStage{Store: pgStore}, "eeeeeeeeeeeeeeee"), nil)),
	)
	sp, err := DialShardedPool([]string{addr0, addr1}, fastShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	report, err := sp.Rollout(context.Background())
	if err == nil || !strings.Contains(err.Error(), "rollout aborted") {
		t.Fatalf("rollout: got %v, want abort", err)
	}
	for i, srv := range []*Server{srv0, srv1} {
		if got := srv.Version(); got != old {
			t.Fatalf("shard %d serves %q after aborted rollout, want %q kept", i, got, old)
		}
	}
	// The healthy shard's staged snapshot was discarded, not left to be
	// committed by a later confused coordinator.
	states := map[string]string{}
	for _, sh := range report.Shards {
		states[sh.Shard] = sh.State
	}
	if states[addr0] != "aborted" {
		t.Fatalf("healthy shard state = %q, want aborted (report %+v)", states[addr0], report)
	}
	if states[addr1] != "failed" {
		t.Fatalf("corrupt shard state = %q, want failed", states[addr1])
	}
	for _, q := range queriesForShards(t, sp) {
		if _, err := sp.AnalyzeSiteContext(context.Background(), "", q); err != nil {
			t.Fatalf("fleet shed a check after contained abort: %v", err)
		}
	}
}

// TestRolloutStagedDivergenceAborts: shards staging different versions
// means their source trees diverged (a half-synced deploy); committing
// would permanently mix generations, so the whole fleet aborts and keeps
// its old snapshot.
func TestRolloutStagedDivergenceAborts(t *testing.T) {
	const old = "aaaaaaaaaaaaaaaa"
	addr0, srv0, _ := startShardServer(t,
		WithSnapshot(testSnapshot(old)),
		WithReloader(staticReloader(testSnapshot("ffffffffffffffff"), nil)),
	)
	addr1, srv1, _ := startShardServer(t,
		WithSnapshot(testSnapshot(old)),
		WithReloader(staticReloader(testSnapshot("9999999999999999"), nil)),
	)
	sp, err := DialShardedPool([]string{addr0, addr1}, fastShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	report, err := sp.Rollout(context.Background())
	if err == nil || !strings.Contains(err.Error(), "diverge") {
		t.Fatalf("rollout: got %v, want divergence abort", err)
	}
	for i, srv := range []*Server{srv0, srv1} {
		if got := srv.Version(); got != old {
			t.Fatalf("shard %d serves %q, want %q kept", i, got, old)
		}
	}
	for _, sh := range report.Shards {
		if sh.State != "aborted" {
			t.Fatalf("shard %s state = %q, want aborted", sh.Shard, sh.State)
		}
	}
}

// TestRolloutPartialCommitKeepsCommitted simulates a shard dying between
// prepare and commit (its process is killed inside the commit window):
// the shard that already committed keeps serving the new self-tested
// generation, the coordinator reports the partial outcome, and the
// survivor's keyspace never sheds.
func TestRolloutPartialCommitKeepsCommitted(t *testing.T) {
	const old, next = "aaaaaaaaaaaaaaaa", "1111111111111111"
	addr0, srv0, _ := startShardServer(t,
		WithSnapshot(testSnapshot(old)),
		WithReloader(staticReloader(testSnapshot(next), nil)),
	)
	var (
		killOnce sync.Once
		srv1     *Server
	)
	hook := func(phase string) {
		if phase != "commit" {
			return
		}
		// Kill the daemon inside the commit window, before its reply can
		// reach the coordinator. Close blocks on this very handler, so it
		// must run async while the handler holds the window open.
		killOnce.Do(func() { go srv1.Close() })
		time.Sleep(300 * time.Millisecond)
	}
	addr1, s1, _ := startShardServer(t,
		WithSnapshot(testSnapshot(old)),
		WithReloader(staticReloader(testSnapshot(next), nil)),
		WithRolloutHook(hook),
	)
	srv1 = s1
	sp, err := DialShardedPool([]string{addr0, addr1}, fastShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	report, err := sp.Rollout(context.Background())
	if err == nil || !strings.Contains(err.Error(), "committed on 1/2 shards") {
		t.Fatalf("rollout: got %v, want partial-commit error", err)
	}
	if got := srv0.Version(); got != next {
		t.Fatalf("committed shard rolled back to %q, want %q kept", got, next)
	}
	states := map[string]ShardRollout{}
	for _, sh := range report.Shards {
		states[sh.Shard] = sh
	}
	if states[addr0].State != "committed" {
		t.Fatalf("survivor state = %+v, want committed", states[addr0])
	}
	if states[addr1].State != "failed" {
		t.Fatalf("killed shard state = %+v, want failed", states[addr1])
	}
	// The fleet's current version is the committed one; the survivor keeps
	// serving its keyspace.
	if got := sp.CurrentVersion(); got != next {
		t.Fatalf("CurrentVersion = %q, want %q", got, next)
	}
	for _, q := range queriesForShards(t, sp) {
		if sp.Owner(q) != 0 {
			continue
		}
		if _, err := sp.AnalyzeSiteContext(context.Background(), "", q); err != nil {
			t.Fatalf("survivor shed a check after partial commit: %v", err)
		}
	}
}

// TestSkewWarnCountsAndTracesStaleVerdicts: under the default policy a
// shard still answering from the superseded version keeps serving, but
// every stale verdict is counted in its StaleServed and captured as a
// notable trace span naming both versions.
func TestSkewWarnCountsAndTracesStaleVerdicts(t *testing.T) {
	const v1, v2 = "aaaaaaaaaaaaaaaa", "2222222222222222"
	addr0, srv0, _ := startShardServer(t, WithSnapshot(testSnapshot(v1)))
	addr1, _, _ := startShardServer(t, WithSnapshot(testSnapshot(v1)))
	tracer := trace.New(trace.Config{SampleEvery: 1, RingSize: 8})
	sp, err := DialShardedPool([]string{addr0, addr1}, fastShardConfig(), WithSkewTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	qs := queriesForShards(t, sp)
	for _, q := range qs {
		if _, err := sp.AnalyzeSiteContext(context.Background(), "", q); err != nil {
			t.Fatal(err)
		}
	}
	// Shard 0 commits the new generation; observing its transition makes
	// v2 current and shard 1's v1 verdicts stale.
	srv0.SetSnapshot(testSnapshot(v2))
	if _, err := sp.AnalyzeSiteContext(context.Background(), "", qs[0]); err != nil {
		t.Fatal(err)
	}
	if got := sp.CurrentVersion(); got != v2 {
		t.Fatalf("CurrentVersion after transition = %q, want %q", got, v2)
	}
	reply, err := sp.AnalyzeSiteContext(context.Background(), "", qs[1])
	if err != nil {
		t.Fatalf("SkewWarn must serve the stale verdict: %v", err)
	}
	if reply.Version != v1 {
		t.Fatalf("stale reply version = %q", reply.Version)
	}
	health := sp.ShardStats()
	if health[1].StaleServed != 1 {
		t.Fatalf("stale shard StaleServed = %d, want 1", health[1].StaleServed)
	}
	if health[0].StaleServed != 0 {
		t.Fatalf("current shard StaleServed = %d, want 0", health[0].StaleServed)
	}
	if health[0].Version != v2 || health[1].Version != v1 {
		t.Fatalf("shard versions = %q, %q", health[0].Version, health[1].Version)
	}
	dump := tracer.Dump()
	if len(dump.Notable) != 1 {
		t.Fatalf("notable spans = %d, want 1", len(dump.Notable))
	}
	skew := dump.Notable[0].VersionSkew
	if !strings.Contains(skew, v1) || !strings.Contains(skew, v2) {
		t.Fatalf("skew span detail %q should name both versions", skew)
	}
}

// TestSkewRefuseMixedRefusesPerCheck: under SkewRefuseMixed a stale
// shard's verdicts are refused with ErrVersionSkew on the healthy stream —
// per item inside batches — while the current shard's checks flow.
func TestSkewRefuseMixedRefusesPerCheck(t *testing.T) {
	const v1, v2 = "aaaaaaaaaaaaaaaa", "3333333333333333"
	addr0, srv0, _ := startShardServer(t, WithSnapshot(testSnapshot(v1)))
	addr1, _, _ := startShardServer(t, WithSnapshot(testSnapshot(v1)))
	sp, err := DialShardedPool([]string{addr0, addr1}, batchingShardConfig(), WithSkewPolicy(SkewRefuseMixed))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	qs := queriesForShards(t, sp)
	for _, q := range qs {
		if _, err := sp.AnalyzeSiteContext(context.Background(), "", q); err != nil {
			t.Fatal(err)
		}
	}
	srv0.SetSnapshot(testSnapshot(v2))
	if _, err := sp.AnalyzeSiteContext(context.Background(), "", qs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.AnalyzeSiteContext(context.Background(), "", qs[1]); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("stale shard check: got %v, want ErrVersionSkew", err)
	}
	// Concurrent checks, batched per shard, refuse exactly the stale items.
	outs := concurrentChecks(sp, append(qs, qs...))
	if outs[0].err != nil || outs[0].reply == nil || outs[2].err != nil {
		t.Fatalf("current shard's batch item refused: %+v", outs)
	}
	if !errors.Is(outs[1].err, ErrVersionSkew) || !errors.Is(outs[3].err, ErrVersionSkew) {
		t.Fatalf("stale shard's batch items: got %+v, want ErrVersionSkew", outs)
	}
}

// TestSkewRefusalEndsOnConvergence: once the lagging shard converges on
// the current version, SkewRefuseMixed serves its checks again with no
// operator action on the client side.
func TestSkewRefusalEndsOnConvergence(t *testing.T) {
	const v1, v2 = "aaaaaaaaaaaaaaaa", "4444444444444444"
	addr0, srv0, _ := startShardServer(t, WithSnapshot(testSnapshot(v1)))
	addr1, srv1, _ := startShardServer(t, WithSnapshot(testSnapshot(v1)))
	sp, err := DialShardedPool([]string{addr0, addr1}, fastShardConfig(), WithSkewPolicy(SkewRefuseMixed))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	qs := queriesForShards(t, sp)
	for _, q := range qs {
		if _, err := sp.AnalyzeSiteContext(context.Background(), "", q); err != nil {
			t.Fatal(err)
		}
	}
	srv0.SetSnapshot(testSnapshot(v2))
	if _, err := sp.AnalyzeSiteContext(context.Background(), "", qs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.AnalyzeSiteContext(context.Background(), "", qs[1]); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("want refusal while lagging, got %v", err)
	}
	srv1.SetSnapshot(testSnapshot(v2))
	reply, err := sp.AnalyzeSiteContext(context.Background(), "", qs[1])
	if err != nil {
		t.Fatalf("converged shard still refused: %v", err)
	}
	if reply.Version != v2 {
		t.Fatalf("converged reply version = %q", reply.Version)
	}
	if got := sp.ShardStats()[1].StaleServed; got != 1 {
		t.Fatalf("StaleServed = %d, want exactly the one pre-convergence refusal", got)
	}
}

// TestFleetStatsFoldVersions: the merged fleet snapshot reports the
// single version when the fleet agrees and the "mixed" sentinel when it
// does not, with per-shard versions in Shards either way. A stats fetch
// alone (no checks) is enough to observe skew.
func TestFleetStatsFoldVersions(t *testing.T) {
	const v1, v2 = "aaaaaaaaaaaaaaaa", "5555555555555555"
	addr0, srv0, _ := startShardServer(t, WithSnapshot(testSnapshot(v1)))
	addr1, _, _ := startShardServer(t, WithSnapshot(testSnapshot(v1)))
	sp, err := DialShardedPool([]string{addr0, addr1}, fastShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	st, err := sp.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotVersion != v1 {
		t.Fatalf("agreed fleet SnapshotVersion = %q, want %q", st.SnapshotVersion, v1)
	}
	srv0.SetSnapshot(testSnapshot(v2))
	st, err = sp.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotVersion != "mixed" {
		t.Fatalf("skewed fleet SnapshotVersion = %q, want mixed", st.SnapshotVersion)
	}
	vers := map[string]string{}
	for _, sh := range st.Shards {
		vers[sh.Shard] = sh.Version
	}
	if vers[addr0] != v2 || vers[addr1] != v1 {
		t.Fatalf("per-shard versions = %v", vers)
	}
}
