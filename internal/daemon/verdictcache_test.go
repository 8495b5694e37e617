package daemon

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"joza/internal/core"
	"joza/internal/engine"
	"joza/internal/nti"
	"joza/internal/profile"
	"joza/internal/sqltoken"
	"joza/internal/trace"
)

// pipeHybrid returns a HybridClient over a one-connection pipe Pool to
// srv, closed at cleanup.
func pipeHybrid(t *testing.T, srv *Server, opts ...HybridOption) (*HybridClient, *Pool) {
	t.Helper()
	p := NewPool(func() (net.Conn, error) {
		clientSide, serverSide := net.Pipe()
		go srv.ServeConn(serverSide)
		return clientSide, nil
	}, PoolConfig{Size: 1})
	h := NewHybridClient(p, nti.MustNew(), core.PolicyTerminate, opts...)
	t.Cleanup(func() { _ = h.Close() })
	return h, p
}

// lapse expires the lease as if a whole term had passed since its last
// renewal, by firing its timer's function.
func (l *lease) lapse() {
	l.renewed.Add(-int64(l.term))
	l.expire()
}

// TestVerdictCacheServesRepeatedSafeChecks: a repeated benign check is
// answered in the application after its first round trip, with the same
// verdict and version, and its span says so; attacks and learning checks
// cross the wire every time.
func TestVerdictCacheServesRepeatedSafeChecks(t *testing.T) {
	const version = "aaaaaaaaaaaaaaaa"
	srv := NewServer(newAnalyzer(), WithSnapshot(NewSnapshot(newAnalyzer(), engine.ProfileStage{Store: trainedStore()}, version)))
	h, _ := pipeHybrid(t, srv, WithTracing(trace.Config{SampleEvery: 1}))
	ctx := context.Background()
	check := func(site, query string) core.Verdict {
		t.Helper()
		v, err := h.CheckContextAt(ctx, site, query, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	first := check("plugin:records", benignQuery)
	second := check("plugin:records", benignQuery)
	if got := srv.Stats().DaemonAnalyzeOps; got != 1 {
		t.Fatalf("the daemon saw %d checks, want the first only", got)
	}
	first.Trace, second.Trace = nil, nil
	if first.Attack || first.Version != version || first.ProfileOutcome != "seen" {
		t.Fatalf("first check: %+v", first)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached verdict differs:\n  wire:  %+v\n  cache: %+v", first, second)
	}
	if spans := h.Traces().Recent; len(spans) != 2 || spans[0].CacheOutcome == "client-hit" || spans[1].CacheOutcome != "client-hit" {
		t.Fatalf("spans %+v: want the second marked client-hit", spans)
	}
	// The same query from another site is its own key.
	if v := check("plugin:untrained", benignQuery); v.ProfileOutcome != "site-unknown" {
		t.Fatalf("other site: %+v", v)
	}
	for i := 0; i < 2; i++ {
		if v := check("plugin:records", attackQuery); !v.PTI.Attack {
			t.Fatalf("attack passed: %+v", v)
		}
	}
	if got := srv.Stats().DaemonAnalyzeOps; got != 4 {
		t.Fatalf("the daemon saw %d checks, want 4: one benign per site and every attack", got)
	}
	m := h.Metrics()
	if m.ClientCacheHits != 1 || m.ClientCacheMisses != 4 || m.ClientCacheFlushes != 0 {
		t.Fatalf("cache counters %d hits, %d misses, %d flushes; want 1, 4, 0", m.ClientCacheHits, m.ClientCacheMisses, m.ClientCacheFlushes)
	}

	// A learning daemon must see every check.
	learner := NewServer(newAnalyzer(), WithSnapshot(NewSnapshot(newAnalyzer(), engine.ProfileStage{Recorder: profile.NewRecorder()}, "")))
	hl, _ := pipeHybrid(t, learner)
	for i := 0; i < 3; i++ {
		if v, err := hl.CheckContextAt(ctx, "plugin:records", benignQuery, nil); err != nil || v.ProfileOutcome != "learned" {
			t.Fatalf("learning check: %+v, %v", v, err)
		}
	}
	if got := learner.Stats().DaemonAnalyzeOps; got != 3 {
		t.Fatalf("the learning daemon saw %d of 3 checks", got)
	}
}

// TestRemoteVerdictReportsServingVersion: a remote verdict carries the
// snapshot version of the daemon reply that decided it, on the wire and
// from the cache, before and after a commit; an unversioned daemon's
// verdicts carry none.
func TestRemoteVerdictReportsServingVersion(t *testing.T) {
	const before, after = "aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb"
	srv := NewServer(newAnalyzer(), WithSnapshot(testSnapshot(before)), WithReloader(staticReloader(testSnapshot(after), nil)))
	h, p := pipeHybrid(t, srv)
	ctx := context.Background()
	versions := func() (string, string) {
		t.Helper()
		var got [2]string
		for i := range got {
			v, err := h.Check(ctx, engine.Request{Query: benignQuery})
			if err != nil {
				t.Fatal(err)
			}
			got[i] = v.Version
		}
		return got[0], got[1]
	}
	if wire, cached := versions(); wire != before || cached != before {
		t.Fatalf("before the commit: versions %q (wire) and %q (cache), want %q", wire, cached, before)
	}
	if _, err := p.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Commit(ctx, after); err != nil {
		t.Fatal(err)
	}
	if wire, cached := versions(); wire != after || cached != after {
		t.Fatalf("after the commit: versions %q (wire) and %q (cache), want %q", wire, cached, after)
	}
	if got := srv.Stats().DaemonAnalyzeOps; got != 2 {
		t.Fatalf("the daemon saw %d checks, want one per version", got)
	}
	if m := h.Metrics(); m.ClientCacheFlushes != 1 {
		t.Fatalf("%d flushes, want the commit's", m.ClientCacheFlushes)
	}

	unversioned, _ := pipeHybrid(t, NewServer(newAnalyzer()))
	for i := 0; i < 2; i++ {
		if v, err := unversioned.Check(ctx, engine.Request{Query: benignQuery}); err != nil || v.Version != "" {
			t.Fatalf("unversioned daemon: version %q, %v", v.Version, err)
		}
	}
}

// TestVersionChangeFlushesClientCache: a daemon swapping its snapshot
// behind the client's back (a reload no client drove) is seen on the next
// reply, which flushes the entries of the old version.
func TestVersionChangeFlushesClientCache(t *testing.T) {
	const before, after = "aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb"
	srv := NewServer(newAnalyzer(), WithSnapshot(testSnapshot(before)))
	h, _ := pipeHybrid(t, srv)
	ctx := context.Background()
	check := func(query, want string) {
		t.Helper()
		v, err := h.Check(ctx, engine.Request{Query: query})
		if err != nil || v.Attack || v.Version != want {
			t.Fatalf("%s: %+v, %v; want a pass at version %q", query, v, err, want)
		}
	}
	other := "SELECT * FROM records WHERE ID=6 LIMIT 5"
	check(benignQuery, before)
	srv.SetSnapshot(testSnapshot(after))
	check(benignQuery, before) // within the lease, from the cache
	check(other, after)        // the wire reports the swap
	check(benignQuery, after)
	if m := h.Metrics(); m.ClientCacheFlushes != 1 || m.ClientCacheHits != 1 {
		t.Fatalf("%d flushes and %d hits, want 1 and 1", m.ClientCacheFlushes, m.ClientCacheHits)
	}
}

// TestRolloutFlushesClientCache: once a fleet rollout commits, the next
// check of a query the client had cached reports the new version.
func TestRolloutFlushesClientCache(t *testing.T) {
	const before, after = "aaaaaaaaaaaaaaaa", "dddddddddddddddd"
	var addrs []string
	for i := 0; i < 2; i++ {
		addr, _, _ := startShardServer(t, WithSnapshot(testSnapshot(before)), WithReloader(staticReloader(testSnapshot(after), nil)))
		addrs = append(addrs, addr)
	}
	sp, err := DialShardedPool(addrs, fastShardConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := NewHybridClient(sp, nti.MustNew(), core.PolicyTerminate)
	defer h.Close()
	ctx := context.Background()
	queries := queriesForShards(t, sp)
	checkAll := func(want string) {
		t.Helper()
		for _, q := range queries {
			v, err := h.Check(ctx, engine.Request{Query: q})
			if err != nil {
				t.Fatal(err)
			}
			if v.Attack || v.Version != want {
				t.Fatalf("%s: attack %v at version %q, want a pass at %q", q, v.Attack, v.Version, want)
			}
		}
	}
	checkAll(before)
	checkAll(before)
	if m := h.Metrics(); m.ClientCacheHits != uint64(len(queries)) {
		t.Fatalf("%d hits before the rollout, want %d", m.ClientCacheHits, len(queries))
	}
	if _, err := sp.Rollout(ctx); err != nil {
		t.Fatal(err)
	}
	checkAll(after)
	checkAll(after)
	if m := h.Metrics(); m.ClientCacheHits != uint64(2*len(queries)) || m.ClientCacheFlushes != 1 {
		t.Fatalf("%d hits and %d flushes, want %d and the rollout's one", m.ClientCacheHits, m.ClientCacheFlushes, 2*len(queries))
	}
}

// TestVerdictCacheLease: a client whose daemon stops replying serves its
// cached verdicts only until the lease lapses; then the check crosses the
// wire and meets the outage, and a reply renews the lease.
func TestVerdictCacheLease(t *testing.T) {
	var mu sync.Mutex
	srv := NewServer(newAnalyzer())
	var served []net.Conn
	p := NewPool(func() (net.Conn, error) {
		mu.Lock()
		defer mu.Unlock()
		if srv == nil {
			return nil, errors.New("daemon down")
		}
		clientSide, serverSide := net.Pipe()
		served = append(served, serverSide)
		go srv.ServeConn(serverSide)
		return clientSide, nil
	}, PoolConfig{Size: 1, MaxAttempts: 1})
	h := NewHybridClient(p, nti.MustNew(), core.PolicyTerminate, WithDegradeMode(DegradeFailClosed))
	defer h.Close()
	// The timer never fires by itself here: the test lapses the lease.
	h.cache.lease.term = time.Hour
	ctx := context.Background()
	check := func() core.Verdict {
		t.Helper()
		v, err := h.Check(ctx, engine.Request{Query: benignQuery})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	check()
	check()
	mu.Lock()
	srv = nil
	for _, c := range served {
		_ = c.Close()
	}
	mu.Unlock()
	if v := check(); v.Attack {
		t.Fatalf("within the lease the cached verdict serves: %+v", v)
	}
	h.cache.lease.lapse()
	if v := check(); !v.Attack {
		t.Fatalf("a lapsed lease served a cached verdict: %+v", v)
	}
	m := h.Metrics()
	if m.ClientCacheLeaseLapses != 1 || m.DegradedChecks != 1 || m.ClientCacheHits != 2 {
		t.Fatalf("%d lapses, %d degraded checks, %d hits; want 1, 1, 2", m.ClientCacheLeaseLapses, m.DegradedChecks, m.ClientCacheHits)
	}

	mu.Lock()
	srv = NewServer(newAnalyzer())
	mu.Unlock()
	check()
	check()
	if m := h.Metrics(); m.ClientCacheHits != 3 {
		t.Fatalf("%d hits, want the reply to renew the lease for one more", m.ClientCacheHits)
	}
	if got := srv.Stats().DaemonAnalyzeOps; got != 1 {
		t.Fatalf("the restarted daemon saw %d checks, want 1", got)
	}
}

// TestLeaseTimerLapses runs the lease on its real timer: a renewed lease
// lapses a term after its last renewal, once.
func TestLeaseTimerLapses(t *testing.T) {
	var l lease
	l.init(5 * time.Millisecond)
	defer l.stop()
	l.renew()
	if !l.live.Load() {
		t.Fatal("a renewed lease is not live")
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.live.Load() {
		if time.Now().After(deadline) {
			t.Fatal("the lease never lapsed")
		}
		time.Sleep(time.Millisecond)
	}
	if got := l.lapses.Load(); got != 1 {
		t.Fatalf("%d lapses, want 1", got)
	}
	l.renew()
	if !l.live.Load() || !l.armed.Load() {
		t.Fatal("renewing a lapsed lease left it dead or its timer idle")
	}
}

// TestDaemonFailureRepliesAreAttacks pins what lets the client cache any
// safe reply: the daemon's engine is fail-closed, so a check its analysis
// could not finish answers as an attack, which the cache never stores.
func TestDaemonFailureRepliesAreAttacks(t *testing.T) {
	if m := NewServer(newAnalyzer()).eng.FailureMode(); m != engine.FailClosed {
		t.Fatalf("daemon failure mode %s, want fail-closed", m)
	}
	snap := testSnapshot("")
	snap.Analyzers = []engine.Analyzer{engine.Func{
		StageName: core.AnalyzerPTI,
		Fn: func(context.Context, engine.Request, *engine.State) (core.Result, error) {
			return core.Result{}, fmt.Errorf("cover: %w", core.ErrOverBudget)
		},
	}}
	h, _ := pipeHybrid(t, NewServer(newAnalyzer(), WithSnapshot(snap)))
	for i := 0; i < 2; i++ {
		v, err := h.Check(context.Background(), engine.Request{Query: benignQuery})
		if err != nil || !v.PTI.Attack {
			t.Fatalf("check %d of an over-budget daemon: %+v, %v; want a fail-closed attack", i, v, err)
		}
	}
	if m := h.Metrics(); m.ClientCacheHits != 0 {
		t.Fatalf("a failure reply was served from the cache %d times", m.ClientCacheHits)
	}
}

// TestVerdictCacheStoresOnlySafeReplies feeds put every unsafe reply
// shape: none may be stored.
func TestVerdictCacheStoresOnlySafeReplies(t *testing.T) {
	const site = "plugin:records"
	unsafe := []*AnalysisReply{
		{Attack: true},
		{Reasons: []ReasonJSON{{Detail: "uncovered"}}},
		{Profile: &ProfileReply{Attack: true, Outcome: "unseen", Site: site}},
		{Profile: &ProfileReply{Outcome: "learned", Site: site}},
		{Profile: &ProfileReply{Outcome: "seen", Site: site, Detail: "note"}},
		{Profile: &ProfileReply{Outcome: "seen", Site: "plugin:other"}},
	}
	c := newVerdictCache()
	defer c.lease.stop()
	for i, r := range unsafe {
		c.put(sqltoken.MySQL, site, benignQuery, r)
		if e := c.get(sqltoken.MySQL, site, benignQuery); e != nil {
			t.Fatalf("unsafe reply %d (%+v) was stored", i, r)
		}
	}
	c.put(sqltoken.MySQL, site, benignQuery, &AnalysisReply{Profile: &ProfileReply{Outcome: "seen", Site: site, Skeleton: "k"}})
	e := c.get(sqltoken.MySQL, site, benignQuery)
	if e == nil || e.reply.Profile.Skeleton != "k" {
		t.Fatalf("safe reply not stored: %+v", e)
	}
	if c.get(sqltoken.Postgres, site, benignQuery) != nil || c.get(sqltoken.MySQL, "", benignQuery) != nil {
		t.Fatal("a hit under another dialect or site")
	}
	// Every site issuing the query keeps its own entry.
	c.put(sqltoken.MySQL, "", benignQuery, &AnalysisReply{})
	c.put(sqltoken.MySQL, "plugin:other", benignQuery, &AnalysisReply{Profile: &ProfileReply{Outcome: "site-unknown", Site: "plugin:other"}})
	for _, s := range []string{site, "", "plugin:other"} {
		if e := c.get(sqltoken.MySQL, s, benignQuery); e == nil || e.site != s {
			t.Fatalf("site %q: got %+v", s, e)
		}
	}
}

// TestVerdictCacheAdmission fills the cache past its capacity: no shard
// outgrows its share, first sightings are turned away, and a second
// sighting gets in.
func TestVerdictCacheAdmission(t *testing.T) {
	c := newVerdictCache()
	defer c.lease.stop()
	safe := &AnalysisReply{}
	for i := 0; i < 2*verdictCacheCap; i++ {
		c.put(sqltoken.MySQL, "", fmt.Sprintf("SELECT %d", i), safe)
	}
	for i := range c.shards {
		if n := len(c.shards[i].entries); n != verdictShardCap {
			t.Fatalf("shard %d holds %d entries, want %d", i, n, verdictShardCap)
		}
	}
	if _, _, rejected, _, _ := c.counts(); rejected == 0 {
		t.Fatal("a full cache turned no first sighting away")
	}
	const q = "SELECT 'second sighting'"
	c.put(sqltoken.MySQL, "", q, safe)
	c.put(sqltoken.MySQL, "", q, safe)
	if c.get(sqltoken.MySQL, "", q) == nil {
		t.Fatal("a second sighting was turned away")
	}
	if len(c.interned) != 1 {
		t.Fatalf("%d interned replies for one reply shape", len(c.interned))
	}
}

// TestVerdictCacheConcurrent races hits, puts under two versions,
// rollout flushes and lease expiries; run it with -race. A hit must
// always be an entry put for its own site, at one of the versions.
func TestVerdictCacheConcurrent(t *testing.T) {
	c := newVerdictCache()
	defer c.lease.stop()
	c.lease.term = time.Millisecond
	sites := []string{"", "a", "b"}
	versions := []string{"v1", "v2"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			for i := 0; i < 3000; i++ {
				site := sites[rng.IntN(len(sites))]
				q := fmt.Sprintf("SELECT %d", rng.IntN(600))
				switch op := rng.IntN(20); {
				case op < 12:
					if e := c.get(sqltoken.MySQL, site, q); e != nil && (e.site != site || (e.reply.Version != "v1" && e.reply.Version != "v2")) {
						t.Errorf("hit for site %q served %+v", site, e)
						return
					}
				case op < 19:
					c.put(sqltoken.MySQL, site, q, &AnalysisReply{Version: versions[rng.IntN(2)]})
				default:
					c.flushRollout()
				}
			}
		}(g)
	}
	wg.Wait()
	for i := range c.shards {
		if n := len(c.shards[i].entries) + len(c.shards[i].bySite); n > verdictShardCap {
			t.Fatalf("shard %d holds %d entries", i, n)
		}
	}
}

// fuzzVersions are the snapshot versions the fuzzed daemon serves; "" is
// an unversioned daemon.
var fuzzVersions = []string{"", "aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb"}

// fuzzDaemon is a Transport whose reply is a pure function of the
// snapshot version it serves, the call site and the query, so the reply
// any version gave can be recomputed. Reply shapes cover passes, PTI and
// profile attacks, learning, and the fail-closed reply of a check the
// daemon could not finish.
type fuzzDaemon struct {
	seed    byte
	version string
	down    bool
	calls   int
}

func (d *fuzzDaemon) replyAt(version, site, query string) *AnalysisReply {
	h := uint32(d.seed)
	for _, s := range []string{version, site, query} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint32(s[i])) * 16777619
		}
		h = (h ^ 0xff) * 16777619
	}
	r := &AnalysisReply{Version: version}
	profiled := func(outcome string, attack bool) {
		if site != "" {
			r.Profile = &ProfileReply{Outcome: outcome, Attack: attack, Site: site, Skeleton: fmt.Sprintf("skel-%d", len(query)%3)}
		}
	}
	switch h % 8 {
	case 1, 7:
		profiled("seen", false)
	case 2:
		profiled("site-unknown", false)
	case 3:
		profiled("learned", false)
	case 4:
		r.Attack = true
		r.Reasons = []ReasonJSON{{Token: TokenJSON{Kind: 1, Text: "UNION", Start: 3, End: 8}, Detail: "uncovered critical token"}}
	case 5:
		profiled("unseen", true)
		r.Attack = r.Profile == nil
	case 6:
		r.Attack = true
		r.Reasons = []ReasonJSON{{Detail: "analysis over budget (fail-closed): " + core.ErrOverBudget.Error()}}
	}
	return r
}

func (d *fuzzDaemon) AnalyzeSiteContext(_ context.Context, site, query string) (*AnalysisReply, error) {
	d.calls++
	if d.down {
		return nil, errors.New("daemon down")
	}
	return d.replyAt(d.version, site, query), nil
}

func (d *fuzzDaemon) Close() error { return nil }

// cacheable is the rule a stored reply must meet.
func cacheable(r *AnalysisReply) bool {
	return !r.Attack && len(r.Reasons) == 0 && (r.Profile == nil || (!r.Profile.Attack && r.Profile.Outcome != "learned"))
}

// FuzzHybridVerdictCache drives a cached HybridClient through a script of
// checks, daemon commits, rollout flushes, lease lapses and outages. Every
// verdict must equal that of a client with an empty cache over a daemon
// serving the version the verdict reports, and after every step each
// cached entry must hold a reply its version really gave, which was safe.
func FuzzHybridVerdictCache(f *testing.F) {
	f.Add(byte(0), false, []byte{0, 0, 0, 0, 4, 1, 0, 0, 1, 9, 1, 9, 6, 2, 1, 9, 5, 0, 0, 0})
	f.Add(byte(3), true, []byte{0, 0x49, 0, 0x49, 7, 0, 0, 0x49, 5, 0, 0, 0x49, 7, 0, 2, 0x49})
	f.Add(byte(9), false, []byte{3, 1, 3, 2, 3, 3, 3, 4, 3, 5, 3, 6, 3, 7, 4, 2, 3, 1, 3, 2, 6, 0, 3, 3})
	queries := []string{
		benignQuery,
		attackQuery,
		"SELECT * FROM records WHERE ID=6 LIMIT 5",
		"SELECT name FROM users WHERE id=5",
		"INSERT INTO records (ID) VALUES (5)",
		"SELECT 1",
		"SELECT * FROM records WHERE ID=5 OR 1=1 LIMIT 5",
		"DELETE FROM records WHERE ID=5",
	}
	sites := []string{"", "plugin:records", "plugin:other"}
	analyzer := nti.MustNew()
	f.Fuzz(func(t *testing.T, seed byte, strict bool, script []byte) {
		if len(script) > 256 {
			return
		}
		opts := []HybridOption{WithDegradeMode(DegradeFailClosed)}
		if strict {
			opts = append(opts, WithStrictProfiles())
		}
		d := &fuzzDaemon{seed: seed}
		h := NewHybridClient(d, analyzer, core.PolicyTerminate, opts...)
		defer h.Close()
		h.cache.lease.term = time.Hour
		ctx := context.Background()
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%8, script[i+1]
			switch op {
			case 4:
				d.version = fuzzVersions[int(arg)%len(fuzzVersions)]
			case 5:
				h.cache.lease.lapse()
			case 6:
				d.version = fuzzVersions[int(arg)%len(fuzzVersions)]
				h.cache.flushRollout()
			case 7:
				d.down = !d.down
			default:
				req := engine.Request{Query: queries[arg%8], Site: sites[int(arg>>3)%len(sites)]}
				if arg&0x40 != 0 {
					req.Inputs = []nti.Input{{Source: "get", Name: "id", Value: "5"}}
				}
				calls := d.calls
				got, err := h.Check(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				crossed := d.calls > calls
				if !crossed && !cacheable(d.replyAt(got.Version, req.Site, req.Query)) {
					t.Fatalf("a hit served %+v for a reply that was not safe at version %q", got, got.Version)
				}
				ref := NewHybridClient(&fuzzDaemon{seed: seed, version: got.Version, down: crossed && d.down}, analyzer, core.PolicyTerminate, opts...)
				want, err := ref.Check(ctx, req)
				_ = ref.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d, site %q, query %q (crossed the wire: %v):\n  cached client: %+v\n  empty cache:   %+v", i/2, req.Site, req.Query, crossed, got, want)
				}
			}
			for s := range h.cache.shards {
				sh := &h.cache.shards[s]
				held := make(map[siteQuery]*cachedReply, len(sh.entries)+len(sh.bySite))
				for q, e := range sh.entries {
					held[siteQuery{e.site, q}] = e
				}
				for k, e := range sh.bySite {
					if k.site != e.site {
						t.Fatalf("entry of site %q keyed by site %q", e.site, k.site)
					}
					held[k] = e
				}
				for k, e := range held {
					if v := h.cache.version.Load(); v == nil || *v != e.reply.Version {
						t.Fatalf("cached %q from site %q holds version %q beside the cache's %v", k.query, k.site, e.reply.Version, v)
					}
					if r := d.replyAt(e.reply.Version, k.site, k.query); !cacheable(r) || !reflect.DeepEqual(r.Profile, e.reply.Profile) {
						t.Fatalf("cached %q from site %q at %q holds %+v, the daemon replied %+v", k.query, k.site, e.reply.Version, e.reply, r)
					}
				}
			}
		}
	})
}
