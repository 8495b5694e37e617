package testbed

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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
// reasons, and the NTI markings, which both paths compute in process. Not
// compared: the PTI cover markings, evidence the analyze reply does not
// carry, and snapshot versions, since the test daemon is unversioned.
func verdictDiff(want, got core.Verdict) string {
	if !reflect.DeepEqual(want.NTI.Markings, got.NTI.Markings) {
		return fmt.Sprintf("NTI markings\n  in process:   %+v\n  over the wire: %+v", want.NTI.Markings, got.NTI.Markings)
	}
	if want.Attack != got.Attack {
		return fmt.Sprintf("attack %v in process, %v over the wire", want.Attack, got.Attack)
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
			return fmt.Sprintf("%s attack %v in process, %v over the wire", r.name, r.want.Attack, r.got.Attack)
		}
		if len(r.want.Reasons)+len(r.got.Reasons) > 0 && !reflect.DeepEqual(r.want.Reasons, r.got.Reasons) {
			return fmt.Sprintf("%s reasons\n  in process:   %+v\n  over the wire: %+v", r.name, r.want.Reasons, r.got.Reasons)
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
// by their first byte: '{' opens a JSON frame, and a binary frame starts
// with its kind (1 is analyze, DESIGN §8.3). net.Pipe delivers each
// client frame in one Read.
type frameKinds struct {
	mu sync.Mutex
	n  map[byte]int
}

func (k *frameKinds) wrap(c net.Conn) net.Conn { return kindConn{c, k} }

func (k *frameKinds) count(b byte) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.n[b]
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

// jsonOnlyConn cuts the binary flag from every client frame before the
// server reads it, as a server that predates binary frames ignores it, so
// the connection stays on JSON.
type jsonOnlyConn struct{ net.Conn }

func (c jsonOnlyConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	return copy(p, bytes.ReplaceAll(p[:n], []byte(`,"binary":true`), nil)), err
}

// oversizedNeighbour is a HybridClient over a micro-batching Pool that,
// beside every 8th check, sends a query past the server's request cap
// through the same pool. The batch carrying the check forms and flushes
// while the oversized call goes out alone and breaks its connection; the
// check must still get its verdict, and only the oversized call may fail.
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
// HybridClient→Pool→Server and, in MySQL, through a HybridClient over a
// micro-batching Pool (the "batch" verb), one over a micro-batching Pool
// that sends a query past the server's request cap beside the checks,
// and one over a 2-shard replicated ShardedPool, all with the same
// fragments and profiles, and requires the same verdict from every path
// on every check.
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
		binaryKinds := &frameKinds{n: map[byte]int{}}
		jsonKinds := &frameKinds{n: map[byte]int{}}
		jsonOnly := func(c net.Conn) net.Conn { return jsonOnlyConn{jsonKinds.wrap(c)} }
		d := &pathDiff{paths: []namedChecker{
			{"guard", guard},
			{"pool", hybridOver(t, pipePool(server(), sqltoken.MySQL, 0, binaryKinds.wrap), sqltoken.MySQL)},
			{"JSON-only pool", hybridOver(t, pipePool(server(), sqltoken.MySQL, 0, jsonOnly), sqltoken.MySQL)},
			{"micro-batching pool", hybridOver(t, pipePool(batching, sqltoken.MySQL, 4, nil), sqltoken.MySQL)},
			{"2-shard fleet", hybridOver(t, fleet, sqltoken.MySQL)},
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
		// The pool negotiated binary frames: one JSON handshake frame per
		// connection, then binary analyze frames. The JSON-only pool sent
		// the same checks and never left JSON.
		onlyJSON := jsonKinds.count('{')
		if n := jsonKinds.count(1); n != 0 || onlyJSON < 383 {
			t.Errorf("JSON-only pool: %d JSON and %d binary analyze frames, want JSON only", onlyJSON, n)
		}
		if json, bin := binaryKinds.count('{'), binaryKinds.count(1); json > 2 || json+bin != onlyJSON {
			t.Errorf("pool: %d JSON and %d binary analyze frames, want at most 2 handshakes and %d frames in all", json, bin, onlyJSON)
		}
		for _, srv := range []*daemon.Server{batching, beside} {
			if st := srv.Stats(); st.DaemonBatchOps == 0 || st.DaemonBatchItems != st.DaemonAnalyzeOps {
				t.Errorf("micro-batching pool: %d batch frames carried %d of %d checks, want every check batched",
					st.DaemonBatchOps, st.DaemonBatchItems, st.DaemonAnalyzeOps)
			}
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
		analyzer := pti.NewCached(pti.New(lab.Fragments, pti.WithDialect(sqltoken.Postgres)), pti.CacheQueryAndStructure, 4096)
		d := &pathDiff{paths: []namedChecker{
			{"guard", guard},
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
		for _, diff := range d.diffs {
			t.Error(diff)
		}
	})
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
