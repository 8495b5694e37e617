package daemon

import (
	"context"
	"errors"
	"fmt"
	"joza/internal/engine"
	"net"
	"strings"
	"testing"
	"time"

	"joza/internal/core"
	"joza/internal/nti"
	"joza/internal/trace"
)

// startShardServer boots one daemon shard over TCP and returns its
// address, the server (for stats), and a kill function that takes the
// shard down hard.
func startShardServer(t *testing.T, opts ...ServerOption) (string, *Server, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(newAnalyzer(), opts...)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	var once bool
	kill := func() {
		if once {
			return
		}
		once = true
		_ = srv.Close()
		<-done
	}
	t.Cleanup(kill)
	return ln.Addr().String(), srv, kill
}

// fastShardConfig keeps dead-shard probes cheap in tests.
func fastShardConfig() PoolConfig {
	return PoolConfig{
		Size:        2,
		Timeout:     5 * time.Second,
		DialTimeout: 500 * time.Millisecond,
		MaxAttempts: 2,
		BackoffMin:  time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
}

// queriesForShards returns one query routed to each shard of sp, derived
// from the benign template so every shard's analyzer accepts it.
func queriesForShards(t *testing.T, sp *ShardedPool) []string {
	t.Helper()
	out := make([]string, sp.Shards())
	found := 0
	for i := 0; found < sp.Shards() && i < 100000; i++ {
		q := fmt.Sprintf("SELECT * FROM records WHERE ID=%d LIMIT 5", i)
		if s := sp.Owner(q); out[s] == "" {
			out[s] = q
			found++
		}
	}
	if found != sp.Shards() {
		t.Fatalf("could not find a query per shard (%d of %d)", found, sp.Shards())
	}
	return out
}

func TestShardedPoolRoutesAndAnalyzes(t *testing.T) {
	addr0, srv0, _ := startShardServer(t)
	addr1, srv1, _ := startShardServer(t)
	sp, err := DialShardedPool([]string{addr0, addr1}, fastShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	perShard := queriesForShards(t, sp)
	for s, q := range perShard {
		reply, err := sp.AnalyzeSiteContext(context.Background(), "", q)
		if err != nil {
			t.Fatalf("shard %d query: %v", s, err)
		}
		if reply.Attack {
			t.Errorf("shard %d flagged benign query", s)
		}
	}
	reply, err := sp.AnalyzeSiteContext(context.Background(), "", attackQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Attack {
		t.Error("attack missed through the sharded pool")
	}
	// Each shard served exactly the keys it owns: both shards saw
	// traffic, and the totals add up.
	st0, st1 := srv0.Stats(), srv1.Stats()
	if st0.DaemonAnalyzeOps == 0 || st1.DaemonAnalyzeOps == 0 {
		t.Fatalf("analyze ops per shard = %d, %d; routing sent everything one way",
			st0.DaemonAnalyzeOps, st1.DaemonAnalyzeOps)
	}
	if total := st0.DaemonAnalyzeOps + st1.DaemonAnalyzeOps; total != 3 {
		t.Fatalf("fleet served %d analyzes, want 3", total)
	}
}

func TestShardedPoolBatchPreservesOrder(t *testing.T) {
	addr0, srv0, _ := startShardServer(t)
	addr1, srv1, _ := startShardServer(t)
	sp, err := DialShardedPool([]string{addr0, addr1}, batchingShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	// Interleave shard-0 and shard-1 keys with an attack in the middle;
	// each concurrent caller must get its own verdict back although each
	// shard's micro-batcher regroups them into its own batch frames.
	perShard := queriesForShards(t, sp)
	queries := []string{perShard[0], perShard[1], attackQuery, perShard[1], perShard[0]}
	for i, out := range concurrentChecks(sp, queries) {
		if out.err != nil {
			t.Fatalf("item %d: %v", i, out.err)
		}
		if want := i == 2; out.reply.Attack != want {
			t.Fatalf("item %d attack=%v, want %v — reassembly scrambled order", i, out.reply.Attack, want)
		}
	}
	if srv0.Stats().DaemonBatchOps == 0 || srv1.Stats().DaemonBatchOps == 0 {
		t.Fatal("a shard received no batch frame")
	}
}

// batchingShardConfig is fastShardConfig with the micro-batcher on, its
// linger long enough for concurrent callers to share a frame.
func batchingShardConfig() PoolConfig {
	cfg := fastShardConfig()
	cfg.BatchSize = 64
	cfg.BatchLinger = 20 * time.Millisecond
	return cfg
}

// TestShardedPoolDeadShardDegradesOnlyItsKeyspace is the sharded
// fault-containment property: killing one daemon fails checks routed to
// it while its siblings' keyspaces keep working — for single checks and
// for batch items alike.
func TestShardedPoolDeadShardDegradesOnlyItsKeyspace(t *testing.T) {
	addr0, _, kill0 := startShardServer(t)
	addr1, _, _ := startShardServer(t)
	sp, err := DialShardedPool([]string{addr0, addr1}, batchingShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	perShard := queriesForShards(t, sp)

	kill0()

	// Single checks: the dead shard's keyspace errors as unavailable, the
	// survivor's keyspace is untouched.
	if _, err := sp.AnalyzeSiteContext(context.Background(), "", perShard[0]); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("dead-shard check = %v, want ErrUnavailable", err)
	}
	if !strings.Contains(fmt.Sprint(sp.AnalyzeSiteContext(context.Background(), "", perShard[0])), addr0) {
		t.Error("dead-shard error does not name the shard")
	}
	reply, err := sp.AnalyzeSiteContext(context.Background(), "", perShard[1])
	if err != nil {
		t.Fatalf("surviving shard's keyspace failed: %v", err)
	}
	if reply.Attack {
		t.Error("benign flagged")
	}

	// Concurrent checks spanning both shards, batched per shard: the dead
	// shard's items fail individually, survivors reply.
	outs := concurrentChecks(sp, []string{perShard[1], perShard[0], perShard[1]})
	if outs[0].err != nil || outs[2].err != nil {
		t.Fatalf("surviving items failed: %+v", outs)
	}
	if !errors.Is(outs[1].err, ErrUnavailable) {
		t.Fatalf("dead-shard item = %+v, want ErrUnavailable", outs[1])
	}
}

// TestShardedPoolBreakerPerShard: consecutive failures against one dead
// shard trip only that shard's breaker; the survivor's stays closed and
// serving.
func TestShardedPoolBreakerPerShard(t *testing.T) {
	addr0, _, kill0 := startShardServer(t)
	addr1, _, _ := startShardServer(t)
	cfg := fastShardConfig()
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Minute
	sp, err := DialShardedPool([]string{addr0, addr1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	perShard := queriesForShards(t, sp)
	kill0()
	for i := 0; i < 4; i++ {
		_, _ = sp.AnalyzeSiteContext(context.Background(), "", perShard[0])
	}
	health := sp.ShardStats()
	if len(health) != 2 {
		t.Fatalf("%d shard healths, want 2", len(health))
	}
	if health[0].BreakerState != "open" {
		t.Errorf("dead shard breaker %q, want open", health[0].BreakerState)
	}
	if health[0].BreakerTrips == 0 {
		t.Error("dead shard breaker never tripped")
	}
	if health[1].BreakerState != "closed" {
		t.Errorf("healthy shard breaker %q, want closed", health[1].BreakerState)
	}
	if _, err := sp.AnalyzeSiteContext(context.Background(), "", perShard[1]); err != nil {
		t.Fatalf("healthy shard dragged down: %v", err)
	}
}

func TestShardedPoolStatsMerge(t *testing.T) {
	addr0, srv0, kill0 := startShardServer(t)
	addr1, srv1, _ := startShardServer(t)
	sp, err := DialShardedPool([]string{addr0, addr1}, fastShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	perShard := queriesForShards(t, sp)
	for i := 0; i < 3; i++ {
		if _, err := sp.AnalyzeSiteContext(context.Background(), "", perShard[0]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sp.AnalyzeSiteContext(context.Background(), "", perShard[1]); err != nil {
		t.Fatal(err)
	}
	st, err := sp.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Checks != 4 {
		t.Errorf("merged checks = %d, want 4", st.Checks)
	}
	if st.DaemonAnalyzeOps != 4 {
		t.Errorf("merged analyze ops = %d, want 4", st.DaemonAnalyzeOps)
	}
	// Each daemon samples check latency like every engine front door; the
	// merged histogram holds exactly the shards' samples.
	if want := srv0.Stats().LatencyCount + srv1.Stats().LatencyCount; st.LatencyCount != want || want == 0 || st.LatencyP99Ns <= 0 {
		t.Errorf("merged latency count=%d p99=%d; histogram merge broken", st.LatencyCount, st.LatencyP99Ns)
	}
	if len(st.Shards) != 2 || st.Shards[0].Shard != addr0 || st.Shards[1].Shard != addr1 {
		t.Fatalf("merged shard health = %+v", st.Shards)
	}

	// With one shard dead, the merge degrades to the survivors and marks
	// the dead shard.
	kill0()
	st, err = sp.Stats()
	if err != nil {
		t.Fatalf("stats with one dead shard: %v", err)
	}
	if st.Shards[0].Err == "" {
		t.Error("dead shard not marked unreachable in merged stats")
	}
	if st.Checks != 1 {
		t.Errorf("survivor-only merge checks = %d, want 1", st.Checks)
	}

	// Format renders the per-shard lines without panicking.
	if out := st.Format(); !strings.Contains(out, addr1) {
		t.Errorf("Format lost shard health:\n%s", out)
	}
}

func TestShardedPoolTracesMerge(t *testing.T) {
	tr0 := trace.New(trace.Config{SampleEvery: 1})
	tr1 := trace.New(trace.Config{SampleEvery: 1})
	addr0, _, _ := startShardServer(t, WithTracer(tr0))
	addr1, _, _ := startShardServer(t, WithTracer(tr1))
	sp, err := DialShardedPool([]string{addr0, addr1}, fastShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	perShard := queriesForShards(t, sp)
	for _, q := range perShard {
		if _, err := sp.AnalyzeSiteContext(context.Background(), "", q); err != nil {
			t.Fatal(err)
		}
	}
	dump, err := sp.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if dump.Started != 2 || dump.Finished != 2 {
		t.Errorf("merged trace counters started=%d finished=%d, want 2/2", dump.Started, dump.Finished)
	}
	if len(dump.Recent) != 2 {
		t.Errorf("merged recent ring has %d spans, want 2", len(dump.Recent))
	}
}

func TestShardedPoolConfigErrors(t *testing.T) {
	if _, err := NewShardedPool(nil); err == nil {
		t.Error("zero shards must error")
	}
	p := NewPool(func() (net.Conn, error) { return nil, errors.New("nope") }, PoolConfig{})
	defer p.Close()
	if _, err := NewShardedPool([]*Pool{p}, WithShardNames([]string{"a", "b"})); err == nil {
		t.Error("name/shard count mismatch must error")
	}
}

// TestHybridClientShardedMetrics: a HybridClient over a ShardedPool folds
// per-shard health into its Metrics snapshot.
func TestHybridClientShardedMetrics(t *testing.T) {
	addr0, _, _ := startShardServer(t)
	addr1, _, _ := startShardServer(t)
	sp, err := DialShardedPool([]string{addr0, addr1}, fastShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := NewHybridClient(sp, nti.MustNew(), core.PolicyTerminate)
	defer h.Close()
	if _, err := h.Check(context.Background(), engine.Request{Query: benignQuery}); err != nil {
		t.Fatal(err)
	}
	snap := h.Metrics()
	if snap.Checks != 1 {
		t.Errorf("checks = %d, want 1", snap.Checks)
	}
	if len(snap.Shards) != 2 {
		t.Fatalf("hybrid metrics carry %d shard healths, want 2", len(snap.Shards))
	}
	if snap.Shards[0].Shard != addr0 || snap.Shards[1].Shard != addr1 {
		t.Errorf("shard names = %+v", snap.Shards)
	}
}
