package testbed

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"joza"
	"joza/internal/core"
	"joza/internal/daemon"
	"joza/internal/nti"
	"joza/internal/pti"
	"joza/internal/sqltoken"
	"joza/internal/webapp"
)

// pathDiff is a joza.Checker that runs every check through several
// front doors — the in-process Guard first, then HybridClients over daemon
// transports — and records any difference between the first path's
// verdict and another's. The app proceeds on the first path's verdict.
type pathDiff struct {
	paths []namedChecker
	diffs []string
}

// namedChecker is one front door under comparison.
type namedChecker struct {
	name string
	joza.Checker
}

func (d *pathDiff) Check(ctx context.Context, req joza.Request) (joza.Verdict, error) {
	want, err := d.paths[0].Check(ctx, req)
	if err != nil {
		return want, err
	}
	for _, p := range d.paths[1:] {
		got, err := p.Check(ctx, req)
		if err != nil {
			return want, fmt.Errorf("%s: %w", p.name, err)
		}
		if diff := verdictDiff(want, got); diff != "" && len(d.diffs) < 10 {
			d.diffs = append(d.diffs, fmt.Sprintf("%s, site %s, query %q: %s", p.name, req.Site, req.Query, diff))
		}
	}
	return want, nil
}

func (d *pathDiff) Authorize(ctx context.Context, req joza.Request) error {
	v, err := d.Check(ctx, req)
	if err == nil && v.Attack {
		err = &joza.AttackError{Verdict: v, Policy: joza.PolicyTerminate}
	}
	return err
}

// verdictDiff compares the parts of a verdict that must not depend on the
// path a check took: the attack bit, each analyzer's attribution and
// reasons, the NTI markings, which every path computes in process, and
// the profile evidence (the query's skeleton and the lookup outcome),
// which a cache hit may answer from a skeleton memo. Not compared: the PTI
// cover markings, evidence the analyze reply does not carry and a cache
// hit does not recompute, and snapshot versions, since the test daemon is
// unversioned.
func verdictDiff(want, got core.Verdict) string {
	if !reflect.DeepEqual(want.NTI.Markings, got.NTI.Markings) {
		return fmt.Sprintf("NTI markings\n  first path: %+v\n  this path:  %+v", want.NTI.Markings, got.NTI.Markings)
	}
	if want.Attack != got.Attack {
		return fmt.Sprintf("attack %v on the first path, %v on this one", want.Attack, got.Attack)
	}
	if want.Skeleton != got.Skeleton || want.ProfileOutcome != got.ProfileOutcome {
		return fmt.Sprintf("profile evidence %q (%s) on the first path, %q (%s) on this one",
			want.Skeleton, want.ProfileOutcome, got.Skeleton, got.ProfileOutcome)
	}
	for _, r := range []struct {
		name      string
		want, got core.Result
	}{
		{core.AnalyzerNTI, want.NTI, got.NTI},
		{core.AnalyzerPTI, want.PTI, got.PTI},
		{core.AnalyzerProfile, want.Profile, got.Profile},
	} {
		if r.want.Attack != r.got.Attack {
			return fmt.Sprintf("%s attack %v on the first path, %v on this one", r.name, r.want.Attack, r.got.Attack)
		}
		if len(r.want.Reasons)+len(r.got.Reasons) > 0 && !reflect.DeepEqual(r.want.Reasons, r.got.Reasons) {
			return fmt.Sprintf("%s reasons\n  first path: %+v\n  this path:  %+v", r.name, r.want.Reasons, r.got.Reasons)
		}
	}
	return ""
}

// pipePool returns a two-connection Pool in dialect d to srv over
// in-memory pipes; batch > 1 turns on its micro-batcher, and a non-nil
// wrap wraps the server end of each pipe.
func pipePool(srv *daemon.Server, d sqltoken.Dialect, batch int, wrap func(net.Conn) net.Conn) *daemon.Pool {
	return daemon.NewPool(func() (net.Conn, error) {
		clientSide, serverSide := net.Pipe()
		if wrap != nil {
			serverSide = wrap(serverSide)
		}
		go srv.ServeConn(serverSide)
		return clientSide, nil
	}, daemon.PoolConfig{Size: 2, Dialect: d, BatchSize: batch})
}

// frameKinds counts the frames clients write to the server ends of pipes
// by their first byte, which is a binary frame's kind (1 is analyze,
// DESIGN §8.3). net.Pipe delivers each client frame in one Read.
type frameKinds struct {
	mu sync.Mutex
	n  map[byte]int
}

func (k *frameKinds) wrap(c net.Conn) net.Conn { return kindConn{c, k} }

func (k *frameKinds) snapshot() map[byte]int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return maps.Clone(k.n)
}

type kindConn struct {
	net.Conn
	k *frameKinds
}

func (c kindConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.k.mu.Lock()
		c.k.n[p[0]]++
		c.k.mu.Unlock()
	}
	return n, err
}

// oversizedNeighbour is a HybridClient over a micro-batching Pool that,
// beside every 8th check, sends a query past the server's request cap
// through the same pool. The batch carrying the check forms and flushes
// while the oversized call goes out alone and is refused; the check must
// still get its verdict, and only the oversized call may fail.
// (Encoding a megabyte per check would make the sweep ten times slower
// under the race detector.)
type oversizedNeighbour struct {
	*daemon.HybridClient
	pool           *daemon.Pool
	query          string
	checks, failed int // checks seen, and oversized calls that failed
}

func (n *oversizedNeighbour) Check(ctx context.Context, req joza.Request) (joza.Verdict, error) {
	n.checks++
	if n.checks%8 != 1 {
		return n.HybridClient.Check(ctx, req)
	}
	big := make(chan error, 1)
	go func() {
		_, err := n.pool.AnalyzeSiteContext(ctx, "", n.query)
		big <- err
	}()
	v, err := n.HybridClient.Check(ctx, req)
	if <-big == nil {
		return v, fmt.Errorf("a %d-byte query past the request cap got a verdict", len(n.query))
	}
	n.failed++
	return v, err
}

// hybridOver returns a HybridClient over transport in dialect d.
func hybridOver(t *testing.T, transport daemon.Transport, d sqltoken.Dialect) *daemon.HybridClient {
	t.Helper()
	h := daemon.NewHybridClient(transport, nti.MustNew(nti.WithDialect(d)), core.PolicyTerminate, daemon.WithDialect(d))
	t.Cleanup(func() { _ = h.Close() })
	return h
}

// TestPathIndependenceDetectionMatrix runs the detection-matrix corpus —
// 266 benign and 117 attack cases — through the in-process Guard, through
// an uncached Guard (CacheNone: no cache hit, so no skeleton memo, on any
// check), through a Guard whose caches are small enough to fill, so their
// admission turns first sightings away and admits second ones, through
// HybridClient→Pool→Server and, in MySQL, through a HybridClient over
// the in-process Direct transport, one over a micro-batching Pool (the
// "batch" verb), one over a micro-batching Pool that sends a query past
// the server's request cap beside the checks, one over a 2-shard
// replicated ShardedPool and one over a 2-shard ShardedPool of
// micro-batching Pools, all with the same fragments and profiles, and
// requires the same verdict from every path on every check. A second
// MySQL slice compares a HybridClient over SpawnPipe's one-pipe Pool,
// whose daemon has no profiles, with a Guard that has none either.
// A Postgres slice repeats the corpus, plus the dialect-evasion payloads,
// with the Guard and the Pool path in the Postgres dialect.
func TestPathIndependenceDetectionMatrix(t *testing.T) {
	lab, err := NewLab()
	if err != nil {
		t.Fatal(err)
	}
	st := &storedState{value: secondOrderBenign}
	store, soPlugin, err := lab.trainProfiles(st)
	if err != nil {
		t.Fatal(err)
	}

	sweep := func(t *testing.T, d *pathDiff) int {
		t.Helper()
		return sweepMatrix(t, lab, st, soPlugin, d)
	}

	t.Run("mysql", func(t *testing.T) {
		guard, err := joza.New(joza.WithFragmentSet(lab.Fragments), joza.WithProfileStore(store))
		if err != nil {
			t.Fatal(err)
		}
		server := func() *daemon.Server {
			analyzer := pti.NewCached(pti.New(lab.Fragments), pti.CacheQueryAndStructure, 4096)
			return daemon.NewServer(analyzer, daemon.WithProfiles(store))
		}
		// Every shard of the fleet is a replica holding the whole corpus.
		shards := []*daemon.Server{server(), server()}
		fleet, err := daemon.NewShardedPool([]*daemon.Pool{pipePool(shards[0], sqltoken.MySQL, 0, nil), pipePool(shards[1], sqltoken.MySQL, 0, nil)})
		if err != nil {
			t.Fatal(err)
		}
		batchShards := []*daemon.Server{server(), server()}
		batchFleet, err := daemon.NewShardedPool([]*daemon.Pool{pipePool(batchShards[0], sqltoken.MySQL, 4, nil), pipePool(batchShards[1], sqltoken.MySQL, 4, nil)})
		if err != nil {
			t.Fatal(err)
		}
		direct := daemon.NewDirect(pti.NewCached(pti.New(lab.Fragments), pti.CacheQueryAndStructure, 4096))
		direct.SetProfiles(store)
		batching := server()
		beside := server()
		besidePool := daemon.NewPool(func() (net.Conn, error) {
			clientSide, serverSide := net.Pipe()
			go beside.ServeConn(serverSide)
			return clientSide, nil
		}, daemon.PoolConfig{Size: 2, BatchSize: 4, MaxAttempts: 1})
		neighbour := &oversizedNeighbour{
			HybridClient: hybridOver(t, besidePool, sqltoken.MySQL),
			pool:         besidePool,
			query:        "SELECT id FROM posts WHERE title = '" + strings.Repeat("x", daemon.DefaultMaxRequestBytes) + "'",
		}
		uncached, err := joza.New(joza.WithFragmentSet(lab.Fragments), joza.WithProfileStore(store), joza.WithCacheMode(joza.CacheNone, 0))
		if err != nil {
			t.Fatal(err)
		}
		small := smallCacheGuard(t, lab, joza.WithProfileStore(store))
		kinds := &frameKinds{n: map[byte]int{}}
		d := &pathDiff{paths: []namedChecker{
			{"guard", guard},
			{"uncached guard", uncached},
			{"small-cache guard", small},
			{"direct", hybridOver(t, direct, sqltoken.MySQL)},
			{"pool", hybridOver(t, pipePool(server(), sqltoken.MySQL, 0, kinds.wrap), sqltoken.MySQL)},
			{"micro-batching pool", hybridOver(t, pipePool(batching, sqltoken.MySQL, 4, nil), sqltoken.MySQL)},
			{"2-shard fleet", hybridOver(t, fleet, sqltoken.MySQL)},
			{"2-shard fleet of micro-batching pools", hybridOver(t, batchFleet, sqltoken.MySQL)},
			{"micro-batching pool beside an oversized query", neighbour},
		}}
		if cases := sweep(t, d); cases != 383 {
			t.Errorf("swept %d cases, want the matrix's 383", cases)
		}
		if neighbour.failed != 48 {
			t.Errorf("%d oversized calls failed, want one beside every 8th of the 383 cases", neighbour.failed)
		}
		for _, p := range d.paths {
			m := p.Checker.(interface{ Metrics() joza.Metrics }).Metrics()
			if m.ProfileAttacks == 0 || m.NTIAttacks == 0 || m.PTIAttacks == 0 {
				t.Errorf("%s: some analyzer never fired: %+v", p.name, m)
			}
		}
		for i, srv := range shards {
			if srv.Stats().DaemonAnalyzeOps == 0 {
				t.Errorf("fleet shard %d served no checks", i)
			}
		}
		for i, srv := range batchShards {
			if st := srv.Stats(); st.DaemonBatchOps == 0 || st.DaemonBatchItems != st.DaemonAnalyzeOps {
				t.Errorf("micro-batching fleet shard %d: %d batch frames carried %d of %d checks, want every check batched",
					i, st.DaemonBatchOps, st.DaemonBatchItems, st.DaemonAnalyzeOps)
			}
		}
		// The pool spoke binary analyze frames from each connection's
		// first byte, one per check.
		if got := kinds.snapshot(); got[1] < 383 || len(got) != 1 {
			t.Errorf("pool: frames by first byte %v, want only binary analyze frames, at least 383", got)
		}
		for _, srv := range []*daemon.Server{batching, beside} {
			if st := srv.Stats(); st.DaemonBatchOps == 0 || st.DaemonBatchItems != st.DaemonAnalyzeOps {
				t.Errorf("micro-batching pool: %d batch frames carried %d of %d checks, want every check batched",
					st.DaemonBatchOps, st.DaemonBatchItems, st.DaemonAnalyzeOps)
			}
		}
		checkAdmission(t, small)
		for _, diff := range d.diffs {
			t.Error(diff)
		}
	})

	// SpawnPipe's daemon serves no profiles, so its one-pipe pool is
	// compared with a Guard that has none.
	t.Run("mysql-spawned-pipe", func(t *testing.T) {
		guard, err := joza.New(joza.WithFragmentSet(lab.Fragments))
		if err != nil {
			t.Fatal(err)
		}
		spawned, stop := daemon.SpawnPipe(pti.NewCached(pti.New(lab.Fragments), pti.CacheQueryAndStructure, 4096))
		t.Cleanup(stop)
		d := &pathDiff{paths: []namedChecker{
			{"guard", guard},
			{"one-pipe spawned pool", hybridOver(t, spawned, sqltoken.MySQL)},
		}}
		if cases := sweep(t, d); cases != 383 {
			t.Errorf("swept %d cases, want the matrix's 383", cases)
		}
		for _, diff := range d.diffs {
			t.Error(diff)
		}
	})

	t.Run("postgres", func(t *testing.T) {
		guard, err := joza.New(joza.WithFragmentSet(lab.Fragments), joza.WithDialect(joza.DialectPostgres))
		if err != nil {
			t.Fatal(err)
		}
		uncached, err := joza.New(joza.WithFragmentSet(lab.Fragments), joza.WithDialect(joza.DialectPostgres), joza.WithCacheMode(joza.CacheNone, 0))
		if err != nil {
			t.Fatal(err)
		}
		analyzer := pti.NewCached(pti.New(lab.Fragments, pti.WithDialect(sqltoken.Postgres)), pti.CacheQueryAndStructure, 4096)
		small := smallCacheGuard(t, lab, joza.WithDialect(joza.DialectPostgres))
		d := &pathDiff{paths: []namedChecker{
			{"guard", guard},
			{"uncached guard", uncached},
			{"small-cache guard", small},
			{"pool", hybridOver(t, pipePool(daemon.NewServer(analyzer), sqltoken.Postgres, 0, nil), sqltoken.Postgres)},
		}}
		if cases := sweep(t, d); cases != 383 {
			t.Errorf("swept %d cases, want the matrix's 383", cases)
		}
		for _, c := range dialectEvasionPayloads() {
			inputs := []joza.Input{{Source: "get", Name: "p", Value: c.Payload}}
			if err := d.Authorize(context.Background(), joza.Request{Query: c.Query, Inputs: inputs}); err == nil {
				t.Errorf("%s: payload %q passed the Postgres guard", c.Class, c.Payload)
			}
		}
		checkAdmission(t, small)
		for _, diff := range d.diffs {
			t.Error(diff)
		}
	})
}

// smallCacheGuard returns a Guard over the lab's fragments whose PTI
// caches hold 16 entries each, so the sweep fills them and every later
// new query goes through the admission of a full cache.
func smallCacheGuard(t *testing.T, lab *Lab, opts ...joza.Option) *joza.Guard {
	t.Helper()
	g, err := joza.New(append([]joza.Option{joza.WithFragmentSet(lab.Fragments), joza.WithCacheMode(joza.CacheQueryAndStructure, 16)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkAdmission requires that g's query cache filled and then turned
// queries away on their first sighting, so the sweep compared verdicts
// on the refused and the admitted paths.
func checkAdmission(t *testing.T, g *joza.Guard) {
	t.Helper()
	m := g.Metrics()
	var rejected, entries uint64
	for _, sh := range m.CacheShards {
		rejected += sh.Rejected
		entries += sh.Entries
	}
	if rejected == 0 || entries != 16 || m.CacheQueryHits == 0 {
		t.Errorf("small-cache guard: %d puts turned away, %d entries, %d query hits; want a full cache that refused puts and hit",
			rejected, entries, m.CacheQueryHits)
	}
}

// sweepMatrix replays the whole detection-matrix corpus through an app
// guarded by c and returns the case count. A blocked query fails its page,
// which is not an error here: c saw the check.
func sweepMatrix(t *testing.T, lab *Lab, st *storedState, soPlugin *webapp.Plugin, c joza.Checker) int {
	t.Helper()
	unprotected := lab.buildApp()
	unprotected.Install(soPlugin)
	app := lab.buildApp(webapp.WithChecker(c))
	app.Install(soPlugin)
	cases := 0
	err := lab.forEachMatrixCase(unprotected, st, func(class string, run func(app *webapp.App) (*webapp.Page, error)) error {
		cases++
		_, err := run(app)
		var ae *joza.AttackError
		if errors.As(err, &ae) {
			err = nil
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

// recordingChecker passes checks to a Checker and keeps each request and
// verdict in order.
type recordingChecker struct {
	joza.Checker
	reqs     []joza.Request
	verdicts []joza.Verdict
}

func (r *recordingChecker) Check(ctx context.Context, req joza.Request) (joza.Verdict, error) {
	v, err := r.Checker.Check(ctx, req)
	if err == nil {
		r.reqs = append(r.reqs, req)
		r.verdicts = append(r.verdicts, v)
	}
	return v, err
}

func (r *recordingChecker) Authorize(ctx context.Context, req joza.Request) error {
	v, err := r.Check(ctx, req)
	if err == nil && v.Attack {
		err = &joza.AttackError{Verdict: v, Policy: joza.PolicyTerminate}
	}
	return err
}

// TestVerdictsIndependentOfCheckOrder runs the detection-matrix corpus
// through one Guard in order, then replays its checks through the same
// Guard in reverse. Each check lexes into the pooled storage the previous
// one left, often for a longer query, so a token left over from another
// check would change a verdict. The second pass runs warm, so PTI's cover
// markings, which a cache hit does not recompute, are left out; every
// other field must be equal.
func TestVerdictsIndependentOfCheckOrder(t *testing.T) {
	lab, err := NewLab()
	if err != nil {
		t.Fatal(err)
	}
	st := &storedState{value: secondOrderBenign}
	store, soPlugin, err := lab.trainProfiles(st)
	if err != nil {
		t.Fatal(err)
	}
	guard, err := joza.New(joza.WithFragmentSet(lab.Fragments), joza.WithProfileStore(store))
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingChecker{Checker: guard}
	if cases := sweepMatrix(t, lab, st, soPlugin, rec); cases != 383 {
		t.Errorf("swept %d cases, want the matrix's 383", cases)
	}
	attacks := 0
	for i := len(rec.reqs) - 1; i >= 0; i-- {
		got, err := guard.Check(context.Background(), rec.reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		want := rec.verdicts[i]
		if want.Attack {
			attacks++
		}
		want.PTI.Markings, got.PTI.Markings = nil, nil
		if !reflect.DeepEqual(want, got) {
			t.Errorf("check %d (site %s, query %q):\n  in order: %+v\n  reversed: %+v", i, rec.reqs[i].Site, rec.reqs[i].Query, want, got)
		}
	}
	if attacks == 0 || attacks == len(rec.reqs) {
		t.Errorf("%d of %d checks were attacks, want both kinds", attacks, len(rec.reqs))
	}
}
